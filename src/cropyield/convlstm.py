"""Convolutional LSTM cell with peephole connections.

Gates use convolutions for the input-to-state and state-to-state paths and
elementwise (Hadamard) weights for the cell-state peepholes. The output gate
peeks at the freshly updated cell state while the input and forget gates see
the previous one; the update order below is deliberate.

The cell runs N independent sequences (plots, augmented views) at once:
frames and states carry a leading item axis, [N, C, H, W], and the weights
are shared by the items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .errors import ShapeMismatchError
from .tensor import Tensor


@dataclass
class ConvLstmState:
    h: Tensor  # hidden maps [N, C_hid, H, W], values in (-1, 1)
    c: Tensor  # cell maps [N, C_hid, H, W]


@dataclass
class ConvLstmParams(tc.ParamTree):
    prefix = "convlstm"

    w_fi: Tensor  # input -> gate convs, [C_hid, C_in, k, k]
    w_ff: Tensor
    w_fo: Tensor
    w_fc: Tensor
    w_hi: Tensor  # hidden -> gate convs, [C_hid, C_hid, k, k]
    w_hf: Tensor
    w_ho: Tensor
    w_hc: Tensor
    w_ci: Tensor  # peephole elementwise weights, [C_hid, H, W]
    w_cf: Tensor
    w_co: Tensor
    b_i: Tensor  # per-channel biases, [C_hid]
    b_f: Tensor
    b_o: Tensor
    b_c: Tensor

    @property
    def kernel(self) -> int:
        return self.w_fi.data.shape[2]

    @property
    def padding(self) -> int:
        return (self.kernel - 1) // 2

    @property
    def hidden_channels(self) -> int:
        return self.w_fi.data.shape[0]


def init_convlstm_params(c_in: int, c_hid: int, height: int, width: int, k: int, rng) -> ConvLstmParams:
    """Seeded uniform init in [-s, s] with s = 1/sqrt(fan_in) per weight tensor."""
    if k % 2 == 0:
        raise ShapeMismatchError(f"kernel size must be odd, got {k}")
    s_in = 1.0 / math.sqrt(c_in * k * k)
    s_hid = 1.0 / math.sqrt(c_hid * k * k)

    def conv_in():
        return tc.param(rng.uniform(-s_in, s_in, size=(c_hid, c_in, k, k)))

    def conv_hid():
        return tc.param(rng.uniform(-s_hid, s_hid, size=(c_hid, c_hid, k, k)))

    def peephole():
        return tc.param(rng.uniform(-1.0, 1.0, size=(c_hid, height, width)))

    def bias():
        return tc.param(np.zeros(c_hid))

    return ConvLstmParams(
        w_fi=conv_in(), w_ff=conv_in(), w_fo=conv_in(), w_fc=conv_in(),
        w_hi=conv_hid(), w_hf=conv_hid(), w_ho=conv_hid(), w_hc=conv_hid(),
        w_ci=peephole(), w_cf=peephole(), w_co=peephole(),
        b_i=bias(), b_f=bias(), b_o=bias(), b_c=bias(),
    )


def zero_state(n: int, c_hid: int, height: int, width: int) -> ConvLstmState:
    return ConvLstmState(h=Tensor(np.zeros((n, c_hid, height, width))),
                         c=Tensor(np.zeros((n, c_hid, height, width))))


def _chan(b: Tensor) -> Tensor:
    return tc.reshape(b, (-1, 1, 1))


def convlstm_step(f_t: Tensor, prev: ConvLstmState, p: ConvLstmParams) -> ConvLstmState:
    """One gate update of N items: frames [N,C_in,H,W], states [N,C_hid,H,W].
    i/f read the previous cell state, o reads the new one."""
    if f_t.data.ndim != 4 or (f_t.data.shape[0],) + f_t.data.shape[2:] != (
            prev.h.data.shape[0],) + prev.h.data.shape[2:]:
        raise ShapeMismatchError(
            f"frames {f_t.data.shape} do not match states {prev.h.data.shape} "
            f"(items and spatial dims)"
        )
    pad = p.padding
    x_i, x_f, x_c, x_o = tc.conv_items(f_t, [p.w_fi, p.w_ff, p.w_fc, p.w_fo], pad)
    h_i, h_f, h_c, h_o = tc.conv_items(prev.h, [p.w_hi, p.w_hf, p.w_hc, p.w_ho], pad)
    i_t = tc.sigmoid(x_i + h_i + p.w_ci * prev.c + _chan(p.b_i))
    f_gate = tc.sigmoid(x_f + h_f + p.w_cf * prev.c + _chan(p.b_f))
    candidate = tc.tanh(x_c + h_c + _chan(p.b_c))
    c_t = f_gate * prev.c + i_t * candidate
    o_t = tc.sigmoid(x_o + h_o + p.w_co * c_t + _chan(p.b_o))
    h_t = o_t * tc.tanh(c_t)
    return ConvLstmState(h=h_t, c=c_t)


def convlstm_sequence(frames, p: ConvLstmParams, init: ConvLstmState) -> list[ConvLstmState]:
    """Iterate the cell over a sequence of [N,C_in,H,W] frames, returning every state."""
    frames = list(frames)
    if not frames:
        raise ShapeMismatchError("sequence needs at least one frame")
    states = []
    state = init
    for f_t in frames:
        state = convlstm_step(f_t if isinstance(f_t, Tensor) else Tensor(f_t), state, p)
        states.append(state)
    return states
