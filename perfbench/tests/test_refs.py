"""Tests of the benchmark's own references and metric list.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import refs  # noqa: E402


# -- FNV-1a-64 -------------------------------------------------------------------


@pytest.mark.parametrize("text, digest", [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"foobar", 0x85944171F73967E8),
])
def test_fnv1a64_published_vectors(text, digest):
    assert refs.fnv1a64(text) == digest


def test_fnv1a64_agrees_with_program():
    from cropyield.fileio import fnv1a64

    data = np.random.default_rng(5).bytes(4096)
    assert refs.fnv1a64(data) == fnv1a64(data)


# -- error metrics ---------------------------------------------------------------


def test_metrics_against_hand_values():
    y, pred = [100.0, 200.0], [110.0, 180.0]
    # |100-110|/100 = 0.1 and |200-180|/200 = 0.1
    assert refs.mape(y, pred) == pytest.approx(0.1, rel=1e-15)
    # 10/105 and 20/190, averaged
    assert refs.smape(y, pred) == pytest.approx((2 / 21 + 2 / 19) / 2, rel=1e-15)
    # log(101/111) = -0.0944097, log(201/181) = 0.1048079; root of their mean square
    assert refs.rmsle(y, pred) == pytest.approx(0.0997443722, rel=1e-9)
    assert refs.rmsle([3.0], [3.0]) == 0.0


# -- convolution and forward pass -------------------------------------------------


def test_conv2d_taps_hand_case():
    x = np.arange(1.0, 10.0).reshape(1, 3, 3)  # [[1,2,3],[4,5,6],[7,8,9]]
    right = np.zeros((1, 1, 3, 3))
    right[0, 0, 1, 1:] = 1.0  # out[i,j] = x[i,j] + x[i,j+1]
    np.testing.assert_array_equal(refs.conv2d_taps(x, right, 1)[0],
                                  [[3, 5, 3], [9, 11, 6], [15, 17, 9]])
    box = np.ones((1, 1, 3, 3))
    np.testing.assert_array_equal(refs.conv2d_taps(x, box, 1)[0],
                                  [[12, 21, 16], [27, 45, 33], [24, 39, 28]])
    np.testing.assert_array_equal(refs.conv2d_taps(x, box, 0), [[[45]]])
    two = np.stack([box[0], 2 * right[0]])  # two output channels
    assert refs.conv2d_taps(x, two, 1).shape == (2, 3, 3)
    assert refs.conv2d_taps(x, two, 1)[1, 1, 1] == 22


def _constant_model(c_in=3, c_hid=4, side=3):
    """Zero convolutions and peepholes, so every map is spatially uniform."""
    ck = {}
    for g in "ifoc":
        ck[f"convlstm/w_f{g}"] = np.zeros((c_hid, c_in, 3, 3))
        ck[f"convlstm/w_h{g}"] = np.zeros((c_hid, c_hid, 3, 3))
        ck[f"convlstm/b_{g}"] = np.zeros(c_hid)
    ck["convlstm/b_c"] = np.ones(c_hid)
    for g in "ifo":
        ck[f"convlstm/w_c{g}"] = np.zeros((c_hid, side, side))
    ck["ssa/conv_kernel"] = np.zeros((c_hid, c_hid, 3, 3))
    ck["ssa/conv_bias"] = np.arange(1.0, c_hid + 1)
    for e, scale in enumerate((1.0, 2.0)):
        expert = np.zeros((c_hid, c_hid, 3, 3))
        expert[:, :, 1, 1] = scale * np.eye(c_hid)
        ck[f"ssa/expert_{e}"] = expert
    ck["ssa/routing"] = np.zeros((2, c_hid))
    ck["ssa/se_w1"] = np.zeros((c_hid // 2, c_hid))
    ck["ssa/se_w2"] = np.zeros((c_hid, c_hid // 2))
    ck["ssa/w_temporal"] = np.array([0.25, 0.75])
    mask = np.zeros(2 * c_hid)
    mask[[0, c_hid]] = 1.0
    ck["mask"] = mask
    head = np.zeros((1, 2, 3, 3))
    head[0, :, 1, 1] = [1.0, 2.0]
    ck["head/w"] = head
    ck["head/b"] = np.array(0.5)
    ck["norm/y_mean"] = np.array(1000.0)
    ck["norm/y_std"] = np.array(100.0)
    return ck


def test_forward_hand_case():
    frames = np.random.default_rng(0).random((3, 3, 3, 3))  # ignored: input convs are zero
    # Gates sit at sigmoid(0) = 1/2 and the candidate at tanh(1), so
    # c_t = (1 - 2^-t) tanh(1) and h_t = tanh(c_t) / 2.
    t1 = math.tanh(1.0)
    h1, h2 = math.tanh(0.5 * t1) / 2, math.tanh(0.75 * t1) / 2
    # Spatial channel 0: relu(bias 1) through an even mix of 1x and 2x identity experts.
    spatial0 = 1.5 * 1.0
    # Temporal channel 0: SE scale sigmoid(0) = 1/2 on h1, h2, weighted 1/4 and 3/4.
    temporal0 = 0.25 * 0.5 * h1 + 0.75 * 0.5 * h2
    want = 1000.0 + 100.0 * (1.0 * spatial0 + 2.0 * temporal0 + 0.5)
    assert refs.forward(frames, _constant_model(), groups=2) == pytest.approx(want, rel=1e-14)


def test_forward_agrees_with_program(tmp_path):
    from dataclasses import replace

    from cropyield import attention as at
    from cropyield import convlstm as cl
    from cropyield.config import RunConfig
    from cropyield.fileio import save_checkpoint
    from cropyield.pipeline import YieldModel

    rng = np.random.default_rng(3)
    cfg = replace(RunConfig(), hidden_channels=4, shuffle_groups=2)
    named = {**cl.init_convlstm_params(5, 4, 6, 6, 3, rng).named(),
             **at.init_ssa_params(4, rng, groups=2).named()}
    mask = np.array([1, 0, 1, 1, 0, 1, 0, 1], dtype=np.float64)
    named.update({"head/w": rng.normal(size=(1, 5, 3, 3)), "head/b": np.array(0.3),
                  "norm/y_mean": np.array(50.0), "norm/y_std": np.array(4.0), "mask": mask})
    save_checkpoint(tmp_path / "model.ckpt", named)
    model = YieldModel.load(tmp_path, cfg)
    for _ in range(3):
        frames = rng.random((4, 5, 6, 6))
        want = refs.forward(frames, named, groups=2)
        assert model.predict_frames(frames) == pytest.approx(want, rel=1e-12)


def test_laplacian_sharpen_hand_case():
    x = np.zeros((1, 3, 3, 1))
    x[0, 1, 1, 0] = 1.0
    out = refs.laplacian_sharpen(x)[0, :, :, 0]
    np.testing.assert_array_equal(out, [[0, -1, 0], [-1, 5, -1], [0, -1, 0]])


# -- metric list -------------------------------------------------------------------


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    got = layers.per_layer(layers.Tracer(), tasks=1, traced_task_s=2.0, overhead_s=1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in got.items()}
