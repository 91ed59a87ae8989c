"""Convolutional LSTM cell with peephole connections.

Gates use convolutions for the input-to-state and state-to-state paths and
elementwise (Hadamard) weights for the cell-state peepholes. The output gate
peeks at the freshly updated cell state while the input and forget gates see
the previous one; the update order below is deliberate.

The cell runs N independent sequences (plots, augmented views) at once:
frames and states carry a leading item axis, [N, C, H, W], and the weights
are shared by the items.

A sequence starts from the zero state h = c = 0, given as ``None``. Its
first step convolves the frames with w_fi, w_fc and w_fo alone: it makes no
hidden-state convolution, no forget gate and no peephole term on c_0. That
is exact, bit for bit, against the general step from ``zero_state``:

- A convolution of zero maps is +0, so x + h is x + 0.0.
- w * c_0 and f * c_0 are signed zeros, and x + 0.0 is never -0, so adding
  them changes no value: c_1 is i * g + 0.0.
- Their gradients are signed zeros too. A gradient is accumulated from
  g + 0.0 on, so it is never -0, and adding a signed zero leaves it as it
  is: an absent term is an add that changes nothing.
- A bias gradient sums a gate's gradient over (H, W), and that sum rounds
  by layout. So i's pre-activation is allocated C-contiguous, as its sum
  with w_ci * c_0 was, and the candidate keeps its convolution's layout.
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


def _pre(x: Tensor, h: Tensor | None, w: Tensor, c: Tensor | None, b: Tensor) -> np.ndarray:
    """A peephole gate's pre-activation x + h + w * c + b, with b per channel.
    An absent h or c is the zero state's: h adds 0.0, as the +0 of a
    convolution of zeros does, and c adds nothing. Without c the sum is
    allocated C-contiguous, the layout in which a sum with w * c comes out."""
    hd = 0.0 if h is None else h.data
    if c is None:
        s = np.add(x.data, hd, out=np.empty(x.data.shape))
    else:
        s = x.data + hd + w.data * c.data
    return s + b.data.reshape(-1, 1, 1)


def _times(a: np.ndarray, b: np.ndarray, like: np.ndarray) -> np.ndarray:
    """a * b in the memory layout of ``like``: the layout in which the primitive
    graph held a pre-activation's gradient. A bias gradient sums it over
    (H, W), and that sum rounds differently by layout."""
    return np.multiply(a, b, out=np.empty_like(like))


def _pre_bw(g: np.ndarray, w: Tensor, c: Tensor | None, b: Tensor, x: Tensor, h: Tensor | None):
    """Backward of ``_pre`` for its gradient ``g``. An absent h or c gets no
    gradient, and neither does w without c."""
    if c is not None:
        tc._acc(w, tc._unbroadcast(g * c.data, w.data.shape))
        tc._acc(c, g * w.data)
    tc._acc(b, tc._unbroadcast(g, b.data.shape + (1, 1)).reshape(b.data.shape))
    tc._acc(x, g)
    if h is not None:
        tc._acc(h, g)


def _cell(x_i, x_f, x_c, h_i, h_f, h_c, c, p: ConvLstmParams) -> Tensor:
    """c_t = f * c + i * g as one node, bit-identical in value and gradients to
    the graph of primitives it replaces (``tests/test_convlstm.py`` keeps that
    graph). Its backward adds into c in that graph's order: g * f, then the
    w_cf term, then the w_ci term. Its parent order keeps that graph's
    backward order of the conv nodes, and with it the order of their sums into
    h_{t-1}. b_c keeps its reshape node: the primitive graph runs those nodes
    apart from the rest of their step, and b_c's gradient sums in that order.

    From the zero state (c and the h terms ``None``, x_f unused) there is no
    forget gate: c_t is i * g + 0.0, the +0 that f * c_0 adds."""
    b_c = _chan(p.b_c)
    i = tc._sigmoid(_pre(x_i, h_i, p.w_ci, c, p.b_i))
    cand = np.tanh(x_c.data + (0.0 if h_c is None else h_c.data) + b_c.data)
    if c is None:
        f = None
        c_t = i * cand + 0.0
        parents = (x_i, x_c, p.b_i, b_c)
    else:
        f = tc._sigmoid(_pre(x_f, h_f, p.w_cf, c, p.b_f))
        c_t = f * c.data + i * cand
        parents = (x_f, h_f, x_i, h_i, x_c, h_c, c, p.w_cf, p.w_ci, p.b_f, p.b_i, b_c)

    def bw(g):
        if c is not None:
            tc._acc(c, g * f)
            _pre_bw(_times(g * c.data * f, 1.0 - f, f), p.w_cf, c, p.b_f, x_f, h_f)
        _pre_bw(_times(g * cand * i, 1.0 - i, i), p.w_ci, c, p.b_i, x_i, h_i)
        g_c = _times(g * i, 1.0 - cand * cand, cand)
        tc._acc(b_c, tc._unbroadcast(g_c, b_c.data.shape))
        tc._acc(x_c, g_c)
        if h_c is not None:
            tc._acc(h_c, g_c)

    return tc._node(c_t, parents, bw)


def _output(x_o, h_o, c_t, p: ConvLstmParams) -> Tensor:
    """h_t = o * tanh(c_t) as one node, bit-identical like ``_cell``. It adds
    into c_t after the next step's cell node: the w_co term, then the tanh'
    term. From the zero state, h_o is ``None``."""
    o = tc._sigmoid(_pre(x_o, h_o, p.w_co, c_t, p.b_o))
    tanh_c = np.tanh(c_t.data)

    def bw(g):
        _pre_bw(_times(g * tanh_c * o, 1.0 - o, o), p.w_co, c_t, p.b_o, x_o, h_o)
        tc._acc(c_t, g * o * (1.0 - tanh_c * tanh_c))

    parents = (x_o, h_o, c_t, p.w_co, p.b_o)
    return tc._node(o * tanh_c, tuple(t for t in parents if t is not None), bw)


def convlstm_step(f_t: Tensor, prev: ConvLstmState | None, p: ConvLstmParams) -> ConvLstmState:
    """One gate update of N items: frames [N,C_in,H,W], states [N,C_hid,H,W].
    i/f read the previous cell state, o reads the new one. The gate
    arithmetic after the eight convolutions is two graph nodes; once they
    are built, the convolutions' outputs are released (``tc.release``): only
    those two nodes read their data, and only in forward.

    ``prev=None`` is the zero state h = c = 0: the step convolves the frames
    with w_fi, w_fc and w_fo alone (see the module docstring)."""
    pad = p.padding
    if prev is None:
        if f_t.data.ndim != 4:
            raise ShapeMismatchError(f"expected frames [N,C_in,H,W], got {f_t.data.shape}")
        x_i, x_c, x_o = tc.conv_items(f_t, [p.w_fi, p.w_fc, p.w_fo], pad)
        x_f = h_i = h_f = h_c = h_o = c = None
    else:
        if f_t.data.ndim != 4 or (f_t.data.shape[0],) + f_t.data.shape[2:] != (
                prev.h.data.shape[0],) + prev.h.data.shape[2:]:
            raise ShapeMismatchError(
                f"frames {f_t.data.shape} do not match states {prev.h.data.shape} "
                f"(items and spatial dims)"
            )
        x_i, x_f, x_c, x_o = tc.conv_items(f_t, [p.w_fi, p.w_ff, p.w_fc, p.w_fo], pad)
        h_i, h_f, h_c, h_o = tc.conv_items(prev.h, [p.w_hi, p.w_hf, p.w_hc, p.w_ho], pad)
        c = prev.c
    c_t = _cell(x_i, x_f, x_c, h_i, h_f, h_c, c, p)
    h_t = _output(x_o, h_o, c_t, p)
    tc.release(*(t for t in (x_i, x_f, x_c, x_o, h_i, h_f, h_c, h_o) if t is not None))
    return ConvLstmState(h=h_t, c=c_t)


def convlstm_sequence(frames, p: ConvLstmParams, init: ConvLstmState | None) -> list[ConvLstmState]:
    """Iterate the cell over a sequence of [N,C_in,H,W] frames from ``init``
    (``None`` for the zero state), returning every state."""
    frames = list(frames)
    if not frames:
        raise ShapeMismatchError("sequence needs at least one frame")
    states = []
    state = init
    for f_t in frames:
        state = convlstm_step(f_t if isinstance(f_t, Tensor) else Tensor(f_t), state, p)
        states.append(state)
    return states
