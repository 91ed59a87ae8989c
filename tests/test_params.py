"""The parameter tree shared by every weight set: checkpoint round trip and coverage."""

import numpy as np
import pytest

from cropyield import attention as at
from cropyield import convlstm as cl
from cropyield import diffusion as df
from cropyield import predictor as pr
from cropyield.errors import DataFormatError


def _head(rng):
    head = pr.init_head(3)
    head.w.data[:] = rng.normal(size=head.w.data.shape)
    head.b.data[()] = rng.normal()
    return head


# part name -> (build from an rng, static fields from_named needs)
PARTS = {
    "denoiser": (lambda rng: df.init_denoiser(3, 4, 5, rng), {"steps": 5}),
    "convlstm": (lambda rng: cl.init_convlstm_params(3, 4, 6, 6, 3, rng), {}),
    "ssa": (lambda rng: at.init_ssa_params(4, rng, groups=2, experts=3, attention_mode="se_only",
                                           conv_mode="dilated"),
            {"groups": 2, "attention_mode": "se_only", "conv_mode": "dilated"}),
    "head": (_head, {}),
}


@pytest.mark.parametrize("part", sorted(PARTS))
def test_tree_round_trip_and_coverage(part):
    build, static = PARTS[part]
    x = build(np.random.default_rng(7))
    named = x.named()
    assert all(key.startswith(part + "/") for key in named)

    back = type(x).from_named(named, **static)
    back_named = back.named()
    assert back_named.keys() == named.keys()
    for key, arr in named.items():
        assert back_named[key].shape == arr.shape
        assert back_named[key].tobytes() == arr.tobytes(), key
    for f in static:
        assert getattr(back, f) == getattr(x, f)

    params = x.parameters()
    assert all(t.requires_grad for t in back.parameters())
    assert len(params) == len(named) == len({id(t) for t in params})
    assert {id(t.data) for t in params} == {id(arr) for arr in named.values()}

    del named[min(named)]
    with pytest.raises(DataFormatError):
        type(x).from_named(named, **static)
