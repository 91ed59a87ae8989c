"""Dense float64 tensors with reverse-mode gradient accumulation.

Everything downstream (recurrent cells, attention, losses) is composed from
the primitive set in this module. The one exception is the ConvLSTM's gate
arithmetic: ``convlstm`` builds it as two nodes of its own with this
module's ``_node``, ``_acc``, ``_unbroadcast`` and ``_sigmoid``, bit-identical
to the primitives they replace. Primitives are pure: given identical
inputs they reproduce identical outputs bit for bit, so a recorded
computation can be replayed exactly. Gradients are accumulated into the
leaf tensors that participated in a computation when ``backward`` is called
on a scalar result; tensors that never entered the graph report an
exactly-zero gradient. Inside ``no_grad()`` primitives record no graph at all.

``backward`` consumes the graph it runs. Each node drops its gradient, its
backward closure (with the buffers the closure saved) and its parents as
soon as its closure has run, so a step's intermediate gradients and saved
buffers are freed while the backward goes on, not when the step ends. A
convolution saves no im2col matrix: its backward gathers it again from its
input's data, a few items at a time (``conv_items``), so the data of a
convolution's input must not change between forward and backward.
Intermediate tensors keep their values but not their gradients. The one
exception is ``release``: ``convlstm`` drops the values of its gate
convolutions' outputs once the gate nodes have read them, since no backward
reads them. A released tensor keeps the first gradient added into it by
reference, without a copy, and a later add makes a new array, never adds in
place: one array may be the gradient of two released tensors. A
convolution's backward reads its output gradient in the [N, H'W', C_out]
memory order its forward gave the output, whatever the layout it arrives in,
so the bits stay.
Leaves keep ``.grad``. A second ``backward`` through a consumed node raises
``GraphConsumedError``: build the graph again to differentiate again.

All data lives in 64-bit floats. Gradient checks at 1e-4 relative tolerance
are not reliable in 32-bit.

The primitives are written for low per-call overhead. The item axis:
``conv_items``, ``global_avg_pool`` and ``softmax1d`` on [N, ...] arrays,
``matmul`` with a 2-D right operand, and every elementwise op let N
independent items (plots, augmented views) go through one graph. Their
contract:

- Forward outputs are bit-identical per item: item n's output is the one the
  same computation gives on item n alone. One BLAS call is made per item (a
  stacked ``np.matmul``) and each item keeps its own memory layout through
  reductions. ``tests/test_tensor.py`` checks ``conv_items``, ``sigmoid``
  and the means against their plain reference forms.
- A tensor shared by the items (a parameter broadcast into an elementwise
  op, a conv kernel, the left operand of ``matmul``) gets its gradient as
  one numpy sum over the items, inside the node that uses it:
  ``_unbroadcast`` for a broadcast, ``sum(axis=0)`` over the per-item GEMMs
  for a kernel. It agrees with a graph of N per-item computations to about
  1e-13 relative, not bit for bit.
- No result depends on the BLAS thread count. A kernel gradient is not one
  GEMM over all items' rows: OpenBLAS rounds that differently with its
  thread count at some shapes. A rerun reproduces every bit.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import fields
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import (
    DataFormatError,
    DomainError,
    GraphConsumedError,
    NumericalError,
    ShapeMismatchError,
)


class Tensor:
    """N-dimensional float64 array, optionally tracked for gradients.

    ``requires_grad=True`` marks a leaf parameter. Results of primitive ops
    track gradients iff any input does (and not inside ``no_grad()``), so
    pure data paths (augmentation, evaluation) build no graph at all.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_parents", "_bw")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._grad = None
        self._parents = ()
        self._bw = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; exactly zero for tensors unused by the loss.

        Only leaves keep theirs: an intermediate tensor's gradient is freed
        once ``backward`` has run its node, and reading it then raises
        GraphConsumedError.
        """
        if self._bw is _CONSUMED:
            raise GraphConsumedError("an intermediate tensor's gradient is freed by backward")
        if self._grad is None:
            return np.zeros_like(self.data)
        return self._grad

    def zero_grad(self):
        self._grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf. Scalar only.

        Consumes the graph: once a node's closure has run, the node drops its
        gradient, closure and parents, so each intermediate gradient and
        saved buffer is freed as soon as nothing upstream needs it. Every
        tensor keeps its data and leaves keep ``.grad``. Raises
        GraphConsumedError, before any gradient moves, if the graph reaches a
        node an earlier backward consumed.
        """
        if self.data.size != 1:
            raise ShapeMismatchError(
                f"backward() needs a scalar, got shape {self.data.shape}"
            )
        order = _toposort(self)
        self._grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._bw is not None:
                if node._grad is not None:
                    node._bw(node._grad)
                node._grad, node._bw, node._parents = None, _CONSUMED, ()

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, index):
        return _getitem(self, index)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)


def param(data) -> Tensor:
    """Leaf tensor with gradient tracking."""
    return Tensor(data, requires_grad=True)


class ParamTree:
    """Base of the parameter dataclasses: one walk for training and checkpoints.

    Every ``Tensor`` field is a parameter, stored as ``<prefix>/<field name>``.
    Other fields (ints, strs, a noise schedule) are static: they are not
    stored and are passed to ``from_named``.
    """

    prefix: ClassVar[str] = ""

    def _leaves(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                yield f.name, value

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self._leaves()]

    def named(self) -> dict:
        """Checkpoint arrays keyed ``<prefix>/<field name>``."""
        return {f"{self.prefix}/{name}": t.data for name, t in self._leaves()}

    @classmethod
    def from_named(cls, named: dict, **static):
        """Rebuild from ``named()`` output; ``static`` supplies the non-Tensor
        fields, and every other field is read from ``named``."""
        kwargs = dict(static)
        for f in fields(cls):
            if f.name not in static:
                key = f"{cls.prefix}/{f.name}"
                if key not in named:
                    raise DataFormatError(f"checkpoint has no tensor {key!r}")
                kwargs[f.name] = param(named[key])
        return cls(**kwargs)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_grad_enabled = True


@contextmanager
def no_grad():
    """Run a forward-only pass: primitives inside record no graph.

    Values are identical to a recording pass; results just have no parents
    and no backward closure, so nothing stays alive past the pass.
    """
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def _node(data, parents, bw) -> Tensor:
    out = Tensor(data)
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._bw = bw
                break
    return out


_CONSUMED = object()  # the ``_bw`` of a node whose closure a backward has run


def _toposort(root: Tensor):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        if node._bw is _CONSUMED:
            raise GraphConsumedError(
                "backward reached a tensor whose graph an earlier backward consumed; "
                "build the graph again")
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p not in seen:
                stack.append((p, False))
    return order


def release(*tensors) -> None:
    """Drop the data of intermediate tensors that no backward reads. Their
    nodes stay in the graph, and a gradient still reaches them."""
    for t in tensors:
        t.data = None


def _acc(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.data is None:  # released: keep g itself; g may also be another tensor's gradient
        t._grad = g if t._grad is None else t._grad + g
    elif t._grad is None:
        # one allocation with the values and memory layout of zeros_like(t.data) += g
        t._grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t._grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(-g, b.data.shape))

    return _node(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _acc(a, _unbroadcast(g * b.data, a.data.shape))
        _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _acc(a, _unbroadcast(g / b.data, a.data.shape))
        _acc(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(a.data / b.data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        _acc(a, -g)

    return _node(-a.data, (a,), bw)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum of all elements, or along ``axis``, kept as a length-1 axis."""
    if axis is not None:
        def bw(g):
            _acc(a, np.broadcast_to(g, a.data.shape))

        return _node(a.data.sum(axis=axis, keepdims=True), (a,), bw)

    def bw(g):
        _acc(a, np.full(a.data.shape, g))

    return _node(a.data.sum(), (a,), bw)


def sum_in_order(terms) -> Tensor:
    """Scalar 0.0 + t_0 + t_1 + ... over the elements of the tensors ``terms``,
    left to right and rounded after each addition, as a chain of scalar
    ``add`` nodes would give (``tsum`` adds pairwise and rounds otherwise).
    One node; every element's gradient is g."""
    terms = tuple(terms)
    flat = np.concatenate([np.zeros(1)] + [t.data.ravel() for t in terms])

    def bw(g):
        for t in terms:
            _acc(t, np.full(t.data.shape, g))

    return _node(np.add.accumulate(flat)[-1], terms, bw)


def tmean(a: Tensor) -> Tensor:
    n = a.data.size

    def bw(g):
        _acc(a, np.full(a.data.shape, g / n))

    return _node(a.data.sum() / n, (a,), bw)  # ndarray.mean's arithmetic


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bw(g):
        _acc(a, g * out_data)

    return _node(out_data, (a,), bw)


def log(a: Tensor) -> Tensor:
    def bw(g):
        _acc(a, g / a.data)

    return _node(np.log(a.data), (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def bw(g):
        _acc(a, g / (2.0 * out_data))

    return _node(out_data, (a,), bw)


# -- activations --------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function of an array, in the memory layout of ``x``; the
    split form avoids overflow in exp for large |x|. ``sigmoid`` and the fused
    ConvLSTM gate nodes share it."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data)

    def bw(g):
        _acc(a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bw(g):
        _acc(a, g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), bw)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bw(g):
        _acc(a, g * mask)

    # NaN fails both comparisons, so it passes through forward to the loss check
    return _node(np.where(a.data <= 0, 0.0, a.data), (a,), bw)


# -- shape manipulation --------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def bw(g):
        _acc(a, g.reshape(old))

    return _node(a.data.reshape(shape), (a,), bw)


def _getitem(a: Tensor, index) -> Tensor:
    def bw(g):
        full = np.zeros_like(a.data)
        np.add.at(full, index, g)
        _acc(a, full)

    return _node(a.data[index], (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _acc(t, piece)

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def take_channels(a: Tensor, idx) -> Tensor:
    """Select channels (axis -3 of [..., C, H, W]) by index list; used for
    shuffles and feature masks."""
    idx = np.asarray(idx, dtype=np.intp)

    def bw(g):
        full = np.zeros_like(a.data)
        np.add.at(np.moveaxis(full, -3, 0), idx, np.moveaxis(g, -3, 0))
        _acc(a, full)

    return _node(np.take(a.data, idx, axis=-3), (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix-vector product [m,n] @ [n], or [m,n] @ [N,n] -> [N,m] for N
    items: one GEMV per item, ``a`` shared by the items (its gradient is one
    GEMM over them)."""
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ShapeMismatchError(
            f"matmul supports [m,n] @ [n] or [N,n], got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[-1]:
        raise ShapeMismatchError(
            f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}"
        )
    if b.data.ndim == 2:
        cols = b.data[:, :, None]

        def bw_items(g):
            _acc(a, g.T @ b.data)
            _acc(b, g @ a.data)

        return _node(np.matmul(a.data, cols)[:, :, 0], (a, b), bw_items)

    def bw(g):
        _acc(a, np.outer(g, b.data))
        _acc(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bw)


# -- spatial primitives ---------------------------------------------------------


class _ConvPlan(NamedTuple):
    c_out: int
    c_in: int
    h_out: int
    w_out: int
    k: int
    padding: int
    dilation: int
    padded: tuple  # [C, H+2p, W+2p]
    gather: np.ndarray  # [H'W', C k k] flat im2col indices into the padded map


@lru_cache(maxsize=32)
def _conv_plan(x_shape, k_shape, padding, dilation) -> _ConvPlan:
    """Check the geometry of one convolution of a [C,H,W] map and build its
    im2col index table."""
    if len(x_shape) != 3 or len(k_shape) != 4:
        raise ShapeMismatchError(
            f"convolution expects maps [C,H,W] and kernels [O,C,k,k], "
            f"got {x_shape} and {k_shape}"
        )
    c_out, c_in, kh, kw = k_shape
    if kh != kw or kh % 2 == 0:
        raise ShapeMismatchError(f"kernels must be square with odd size, got {kh}x{kw}")
    if x_shape[0] != c_in:
        raise ShapeMismatchError(
            f"input has {x_shape[0]} channels but kernels expect {c_in}"
        )
    if padding < 0 or dilation < 1:
        raise ShapeMismatchError(f"bad padding={padding} / dilation={dilation}")
    k_eff = kh + (kh - 1) * (dilation - 1)
    hp, wp = x_shape[1] + 2 * padding, x_shape[2] + 2 * padding
    h_out, w_out = hp - k_eff + 1, wp - k_eff + 1
    if h_out < 1 or w_out < 1:
        raise ShapeMismatchError(
            f"convolution output would be {h_out}x{w_out} for input {x_shape}, "
            f"kernel {kh} (dilation {dilation}), padding {padding}"
        )
    i, j, c, a, b = np.ix_(*(np.arange(n, dtype=np.intp) for n in (h_out, w_out, c_in, kh, kw)))
    flat = ((c * hp + i + a * dilation) * wp + j + b * dilation).reshape(h_out * w_out, -1)
    flat.flags.writeable = False
    return _ConvPlan(c_out, c_in, h_out, w_out, kh, padding, dilation, (c_in, hp, wp), flat)


def _gather(xp: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """The im2col of padded maps [..., C, H+2p, W+2p]: [..., H'W', C k k],
    C-contiguous, one gather of the plan's flat index table."""
    lead = xp.shape[:-3]
    if math.prod(lead) == 1:
        return xp.ravel()[gather].reshape(lead + gather.shape)
    return np.take(xp.reshape(lead + (-1,)), gather, axis=-1)


def _pad(xd: np.ndarray, padded: tuple, padding: int) -> np.ndarray:
    """Zero-padded C-contiguous copy of [..., C, H, W] maps."""
    if not padding:
        return np.ascontiguousarray(xd)
    xp = np.zeros(xd.shape[:-3] + padded)
    xp[..., padding:-padding, padding:-padding] = xd
    return xp


def _cols(xd: np.ndarray, plan: _ConvPlan) -> np.ndarray:
    """The im2col [N, H'W', C k k] of maps [N,C,H,W]: row (i, j), column
    (c, a, b) holds the padded map's [c, i + a*dilation, j + b*dilation],
    C-contiguous. For a 1x1 kernel it is the [H*W, C] transposed view of each
    padded map: the GEMM's rounding depends on its operands' layout, so that
    layout stays."""
    xp = _pad(xd, plan.padded, plan.padding)
    if plan.k == 1:
        return xp.reshape(xp.shape[0], plan.c_in, -1).transpose(0, 2, 1)
    return _gather(xp, plan.gather)


# Items per chunk in a convolution's backward: the im2col it re-gathers and
# the im2col gradient it scatters exist for this many items at a time.
REGATHER_ITEMS = 4


def _kernel_grads(pending, cols_of, n: int):
    """Accumulate, in order, the gradient of each kernel in ``pending``, a list
    of (kernel, output gradient [N, C_out, H'W']) pairs of one call: one GEMM
    per item against the im2col, which ``cols_of(s, e)`` gives for items
    s..e-1, REGATHER_ITEMS items at a time. A shared kernel's gradient is the
    sum of its per-item GEMMs."""
    dks = [np.empty((n, kern.data.shape[-4], math.prod(kern.data.shape[-3:])))
           for kern, _ in pending]
    for s in range(0, n, REGATHER_ITEMS):
        cols = cols_of(s, s + REGATHER_ITEMS)
        for dk, (_, gmat) in zip(dks, pending):
            np.matmul(gmat[s:s + REGATHER_ITEMS], cols, out=dk[s:s + REGATHER_ITEMS])
        del cols  # before the next chunk gathers its own
    for dk, (kern, _) in zip(dks, pending):
        kd = kern.data
        _acc(kern, (dk if kd.ndim == 5 else dk.sum(axis=0)).reshape(kd.shape))


def _input_grad(gmat: np.ndarray, kmat: np.ndarray, plan: _ConvPlan) -> np.ndarray:
    """Gradient [N,C,H,W] of the maps of a convolution with kernel matrix
    ``kmat`` from its output gradient ``gmat`` [N, C_out, H'W']: one GEMM per
    item gives the im2col gradient, REGATHER_ITEMS items at a time.

    Each pixel sums its taps into 0.0 in (a, b) order: one add per tap, into a
    channel-last buffer, so that each add reads its tap's columns in order.
    """
    n = gmat.shape[0]
    c_in, hp, wp = plan.padded
    k, d, h_out, w_out, p = plan.k, plan.dilation, plan.h_out, plan.w_out, plan.padding
    dxp = np.zeros((n, hp, wp, c_in))
    for s in range(0, n, REGATHER_ITEMS):
        e = s + REGATHER_ITEMS
        dcols = np.matmul(gmat[s:e].transpose(0, 2, 1), kmat[s:e] if kmat.ndim == 3 else kmat)
        taps = dcols.reshape(-1, h_out, w_out, c_in, k, k)
        for a in range(k):
            for b in range(k):
                dxp[s:e, a * d:a * d + h_out, b * d:b * d + w_out] += taps[..., a, b]
        del dcols, taps  # before the next chunk makes its own
    dxp = dxp.transpose(0, 3, 1, 2)
    return dxp[..., p:-p, p:-p] if p else dxp


def conv_items(x: Tensor, kernels, padding: int = 0, dilation: int = 1) -> list:
    """Cross-correlation of N maps [N,C_in,H,W] with each kernel in ``kernels``.

    A kernel is shared by the items, [C_out,C_in,k,k], or has one per item,
    [N,C_out,C_in,k,k]. Returns one [N,C_out,H',W'] node per kernel. Zero
    padding, square odd kernels of one size, unit stride; ``dilation`` spaces the kernel
    taps (effective size k + (k-1)(dilation-1)). The im2col is gathered once
    for all kernels; each kernel makes one GEMM per item each way and scatters
    its own input gradient. A shared kernel's gradient is the sum of its
    per-item GEMMs.

    The graph does not keep the im2col, except a 1x1 kernel's, which is a view
    of the maps: backward gathers it again from ``x.data``, once per call and
    REGATHER_ITEMS items at a time, so ``x.data`` must not change between
    forward and backward. Each per-item GEMM sees the operands it would see
    with a kept im2col, so every bit is the same. A hidden group node runs
    after all the outputs and makes every kernel's gradient from one gather.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ShapeMismatchError(f"conv_items expects [N,C,H,W] maps, got shape {xd.shape}")
    n = xd.shape[0]
    kernels = tuple(kernels)
    plans = [_conv_plan(xd.shape[1:], kern.data.shape[-4:], padding, dilation)
             for kern in kernels]
    plan0 = plans[0]
    for kern, plan in zip(kernels[1:], plans[1:]):
        if plan.k != plan0.k:
            raise ShapeMismatchError(
                f"the kernels of one call share their im2col and must have one size, "
                f"got {kernels[0].data.shape} and {kern.data.shape}")
    cols = _cols(xd, plan0)
    if plan0.k == 1:  # only this closure keeps ``cols``: a view of the maps
        def cols_of(s, e):
            return cols[s:e]
    else:
        def cols_of(s, e):
            return _cols(xd[s:e], plan0)
    # The group's parents are the kernels, so that it records its closure even
    # when x needs no gradient. It is each output's first parent, so the
    # toposort finishes it after x's graph: it then runs before anything x
    # came from, and a kernel's gradients from successive calls (a recurrent
    # cell's steps) add up in the order of the calls, as they would if each
    # output made its own.
    group = _node(np.empty(0), kernels, lambda pending: _kernel_grads(pending, cols_of, n))
    outs = []
    for kern, plan in zip(kernels, plans):
        kd = kern.data
        if kd.ndim == 5 and kd.shape[0] != n or kd.ndim not in (4, 5):
            raise ShapeMismatchError(f"kernels {kd.shape} do not fit {n} items")
        kmat = kd.reshape(kd.shape[:-3] + (-1,))  # [C_out, C_in k k], per item if 5-D
        out_data = np.matmul(cols, kmat.swapaxes(-1, -2)).transpose(0, 2, 1)
        outs.append(_node(out_data.reshape(n, plan.c_out, plan.h_out, plan.w_out),
                          (group, x, kern), _conv_items_bw(x, kern, kmat, plan, group)))
    return outs


def _conv_items_bw(x, kern, kmat, plan, group):
    def bw(g):
        n = g.shape[0]
        # [N, C_out, H'W'] in the output's memory order, [N, H'W', C_out]: the
        # GEMMs round by their operands' layout, and a released output's
        # gradient may arrive in another (a copy only then)
        gmat = np.ascontiguousarray(
            g.reshape(n, kmat.shape[-2], -1).transpose(0, 2, 1)).transpose(0, 2, 1)
        if kern.requires_grad:  # the group's "gradient": the list it makes kernel gradients of
            if group._grad is None:
                group._grad = []
            group._grad.append((kern, gmat))
        if x.requires_grad:
            _acc(x, _input_grad(gmat, kmat, plan))

    return bw


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean of a [C,H,W] map, or of N maps [N,C,H,W]."""
    if x.data.ndim not in (3, 4):
        raise ShapeMismatchError(
            f"global_avg_pool expects [C,H,W] or [N,C,H,W], got {x.data.shape}")
    h, w = x.data.shape[-2:]
    n = h * w

    def bw(g):
        _acc(x, np.repeat(g, n).reshape(x.data.shape) / n)

    return _node(x.data.sum(axis=(-2, -1)) / n, (x,), bw)  # ndarray.mean's arithmetic


def softmax1d(logits: Tensor) -> Tensor:
    """Probability vector over the last axis of a logit tensor: [K], or [N,K]
    for N items (max-shifted for stability)."""
    shifted = sub(logits, Tensor(np.max(logits.data, axis=-1, keepdims=True)))
    e = exp(shifted)
    return div(e, tsum(e, axis=-1))


# -- training -------------------------------------------------------------------


def minibatches(idx, batch_size: int, rng) -> list:
    """One ``rng.permutation`` draw over ``idx``, cut into consecutive chunks
    of ``batch_size`` (the last one may be shorter)."""
    order = [idx[k] for k in rng.permutation(len(idx))]
    return [order[start:start + batch_size] for start in range(0, len(order), batch_size)]


def sgd_step(params, loss_fn, lr: float, what: str) -> float:
    """One gradient-descent step on the scalar ``loss_fn()``; returns the loss.

    A non-finite loss raises NumericalError naming ``what`` before any
    parameter moves.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if not np.isfinite(loss.data):
        raise NumericalError(f"{what} diverged (non-finite loss)")
    loss.backward()
    for p in params:
        p.data -= lr * p.grad
    return loss.item()


# -- verification ---------------------------------------------------------------


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative disagreement between reverse-mode and central differences.

    ``f`` maps the tensor to a scalar Tensor. Relative error per coordinate is
    |analytic - numeric| / max(1, |numeric|); the max over coordinates is
    returned. Raises NumericalError on non-finite intermediates.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise DomainError(f"eps {eps} outside [1e-7, 1e-3]")
    x.zero_grad()
    out = f(x)
    if not np.all(np.isfinite(out.data)):
        raise NumericalError("non-finite value in grad_check forward pass")
    out.backward()
    analytic = x.grad.copy()
    if not np.all(np.isfinite(analytic)):
        raise NumericalError("non-finite analytic gradient in grad_check")

    flat = x.data.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(x).data)
        flat[i] = orig - eps
        lo = float(f(x).data)
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericalError("non-finite value in finite-difference probe")
        numeric = (hi - lo) / (2.0 * eps)
        err = abs(analytic.reshape(-1)[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
