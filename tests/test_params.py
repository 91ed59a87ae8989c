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


SCHED = df.linear_schedule(steps=5, beta_end=0.5)

# part name -> (build from an rng, static fields from_named needs, the leaf
# names of its checkpoint keys: saved checkpoints and perfbench/refs.py read them)
PARTS = {
    "denoiser": (lambda rng: df.init_denoiser(3, 4, SCHED, rng), {"sched": SCHED},
                 "conv1 b1 conv2 b2"),
    "convlstm": (lambda rng: cl.init_convlstm_params(3, 4, 6, 6, 3, rng), {},
                 "w_fi w_ff w_fo w_fc w_hi w_hf w_ho w_hc w_ci w_cf w_co b_i b_f b_o b_c"),
    "ssa": (lambda rng: at.init_ssa_params(4, rng, groups=2, attention_mode="se_only",
                                           conv_mode="dilated"),
            {"groups": 2, "attention_mode": "se_only", "conv_mode": "dilated"},
            "se_w1 se_w2 w_temporal conv_kernel conv_bias routing expert_0 expert_1"),
    "head": (_head, {}, "w b"),
}


@pytest.mark.parametrize("part", sorted(PARTS))
def test_tree_round_trip_and_coverage(part):
    build, static, leaves = PARTS[part]
    x = build(np.random.default_rng(7))
    named = x.named()
    assert set(named) == {f"{part}/{leaf}" for leaf in leaves.split()}

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
