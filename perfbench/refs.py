"""Independent references the benchmark checks the program's outputs against.

Nothing here imports ``cropyield``. Each function is written from its
definition: FNV-1a-64 from the published algorithm, the forward pass from
the model's equations (peephole ConvLSTM, squeeze-and-excitation, channel
shuffle, temporal weights, conditional convolution, conv head), and the
error metrics from their formulas. The convolution runs one kernel tap at a
time instead of the program's im2col matrix product, so a shared mistake in
the window arithmetic cannot hide.
"""

from __future__ import annotations

import math

import numpy as np

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a: xor each byte into the state, then multiply by the prime."""
    h = FNV64_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV64_PRIME) & _MASK64
    return h


# -- error metrics ------------------------------------------------------------


def mape(y, pred) -> float:
    return sum(abs((a - b) / a) for a, b in zip(y, pred)) / len(y)


def rmsle(y, pred) -> float:
    return math.sqrt(sum((math.log1p(a) - math.log1p(b)) ** 2 for a, b in zip(y, pred)) / len(y))


def smape(y, pred) -> float:
    return sum(abs(a - b) / ((abs(a) + abs(b)) / 2.0) for a, b in zip(y, pred)) / len(y)


# -- forward pass -------------------------------------------------------------


def laplacian_sharpen(x_thwc: np.ndarray) -> np.ndarray:
    """x + (4x - up - down - left - right) per band and step, zero outside the plot."""
    lap = 4.0 * x_thwc
    lap[:, 1:] -= x_thwc[:, :-1]
    lap[:, :-1] -= x_thwc[:, 1:]
    lap[:, :, 1:] -= x_thwc[:, :, :-1]
    lap[:, :, :-1] -= x_thwc[:, :, 1:]
    return x_thwc + lap


def conv2d_taps(x: np.ndarray, kernels: np.ndarray, padding: int) -> np.ndarray:
    """Cross-correlation of [C,H,W] with [O,C,k,k]: zero padding, unit stride,
    accumulated one kernel tap at a time."""
    c, h, w = x.shape
    _, _, kh, kw = kernels.shape
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding))
    xp[:, padding:padding + h, padding:padding + w] = x
    h_out, w_out = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    out = np.zeros((kernels.shape[0], h_out, w_out))
    for a in range(kh):
        for b in range(kw):
            out += np.tensordot(kernels[:, :, a, b], xp[:, a:a + h_out, b:b + w_out], axes=1)
    return out


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _relu(x):
    return np.maximum(x, 0.0)


def forward(frames_tchw: np.ndarray, ckpt: dict, groups: int) -> float:
    """Yield prediction for one plot from a model checkpoint's named arrays.

    Covers the default composition only: SE then channel shuffle on the
    temporal branch, conv + ReLU then conditional conv on the spatial branch,
    identity head activation.
    """

    def lstm(name):
        return ckpt[f"convlstm/{name}"]

    c_hid, _, k, _ = lstm("w_fi").shape
    pad = (k - 1) // 2
    h = np.zeros((c_hid,) + frames_tchw.shape[2:])
    c = np.zeros_like(h)
    hidden = []
    for f in frames_tchw:
        def gate(g):
            return (conv2d_taps(f, lstm(f"w_f{g}"), pad) + conv2d_taps(h, lstm(f"w_h{g}"), pad)
                    + lstm(f"b_{g}")[:, None, None])

        i_t = _sigmoid(gate("i") + lstm("w_ci") * c)
        f_t = _sigmoid(gate("f") + lstm("w_cf") * c)
        c = f_t * c + i_t * np.tanh(gate("c"))
        o_t = _sigmoid(gate("o") + lstm("w_co") * c)
        h = o_t * np.tanh(c)
        hidden.append(h)

    w_temporal = ckpt["ssa/w_temporal"]
    past = hidden[-1 - len(w_temporal):-1]

    conv_k = ckpt["ssa/conv_kernel"]
    s_pad = (conv_k.shape[2] - 1) // 2
    mid = _relu(conv2d_taps(hidden[-1], conv_k, s_pad) + ckpt["ssa/conv_bias"][:, None, None])
    logits = ckpt["ssa/routing"] @ mid.mean(axis=(1, 2))
    route = np.exp(logits - logits.max())
    route /= route.sum()
    experts = [ckpt[f"ssa/expert_{e}"] for e in range(len(route))]
    mixed = sum(r * e for r, e in zip(route, experts))
    spatial = conv2d_taps(mid, mixed, (mixed.shape[2] - 1) // 2)

    perm = np.arange(c_hid).reshape(groups, c_hid // groups).T.ravel()
    temporal = np.zeros_like(h)
    for weight, hmap in zip(w_temporal, past):
        scale = _sigmoid(ckpt["ssa/se_w2"] @ _relu(ckpt["ssa/se_w1"] @ hmap.mean(axis=(1, 2))))
        temporal += weight * (scale[:, None, None] * hmap)[perm]

    fused = np.concatenate([spatial, temporal], axis=0)
    selected = fused[ckpt["mask"] > 0.5]
    ymap = conv2d_taps(selected, ckpt["head/w"], 1) + ckpt["head/b"]
    return float(ckpt["norm/y_mean"] + ckpt["norm/y_std"] * ymap.mean())
