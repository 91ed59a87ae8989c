"""The method's fixed hyperparameters are module constants: no public function
or method of the method's modules gives a parameter a numeric default, so
each value is written once, where the module that uses it names it."""

import inspect

import pytest

from cropyield import attention, contrastive, convlstm, diffusion, eo, predictor, synthdata

MODULES = (attention, contrastive, convlstm, diffusion, eo, predictor, synthdata)


def public_callables(module):
    """(qualified name, function) of the public functions a module defines
    and of the public methods and ``__init__`` of its classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                func = getattr(member, "__func__", member)  # classmethod, staticmethod
                if inspect.isfunction(func) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{name}.{attr}", func


def numeric_defaults(module):
    return [f"{qual}({p.name}={p.default!r})"
            for qual, func in public_callables(module)
            for p in inspect.signature(func).parameters.values()
            if isinstance(p.default, (int, float)) and not isinstance(p.default, bool)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_no_numeric_parameter_default(module):
    assert numeric_defaults(module) == []


def test_the_walk_reaches_the_functions_that_took_constants():
    seen = {qual for module in MODULES for qual, _ in public_callables(module)}
    assert {"init_ssa_params", "pretrain_encoder", "linear_schedule", "train_denoiser",
            "run_eo", "make_probe_fitness", "DenoiserParams.forward"} <= seen
