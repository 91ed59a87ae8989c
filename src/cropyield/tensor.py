"""Dense float64 tensors with reverse-mode gradient accumulation.

Everything downstream (recurrent cells, attention, losses) is composed from
the primitive set in this module. Primitives are pure: given identical
inputs they reproduce identical outputs bit for bit, so a recorded
computation can be replayed exactly. Gradients are accumulated into the
tensors that participated in a computation when ``backward`` is called on a
scalar result; tensors that never entered the graph report an exactly-zero
gradient. Inside ``no_grad()`` primitives record no graph at all.

All data lives in 64-bit floats. Gradient checks at 1e-4 relative tolerance
are not reliable in 32-bit.

The primitives are written for low per-call overhead under a bit-exact
contract: every output and gradient must stay identical, bit for bit, to
the plain formulation it replaces. That fixes the GEMM operands and their
memory layout (BLAS sums in the order of the inner dimension), the order in
which contributions are accumulated into a gradient, and the layout of a
gradient's first buffer. ``tests/test_tensor.py`` checks ``conv_items``,
``sigmoid`` and gradient accumulation against those reference forms.

The item axis. ``conv_items``, ``share``, ``global_avg_pool`` and
``softmax1d`` on [N, ...] arrays, ``matmul`` with a 2-D right operand, and
every elementwise op let N independent items (plots, augmented views) go
through one graph. Item n's outputs are bit-identical to those of the same
computation on item n alone, and so is its gradient: one BLAS call is made
per item (a stacked ``np.matmul``, never one GEMM over all items' rows),
each item keeps its own memory layout through reductions, and each conv
scatters its own input gradient. A tensor shared by the items (a parameter;
``share`` broadcasts one into an elementwise op) receives one part per item
from each node that uses it. During ``Tensor.backward`` these parts are
deferred, and at its end each leaf adds them item-major: all of item 0's
parts in the order the backward pass produced them, then item 1's, and so
on, one ``np.add.accumulate`` per leaf. That is the order in which a graph
of N separate per-item computations accumulates, when its backward pass
visits item 0's nodes first, then item 1's: the items must be laid out in
that visiting order. Outside a backward pass, parts are added at once.
"""

from __future__ import annotations

import ctypes
import math
import sys
from contextlib import contextmanager
from dataclasses import fields
from functools import lru_cache
from typing import ClassVar, NamedTuple, get_origin, get_type_hints

import numpy as np

from .errors import DataFormatError, DomainError, NumericalError, ShapeMismatchError


@lru_cache(maxsize=None)
def keep_freed_heap() -> None:
    """Let glibc's malloc keep freed memory on its heap for reuse, for the
    rest of the process (``pipeline.run_pipeline`` calls this once).

    A minibatch graph holds tens of MB in arrays of 0.1 to a few MB and frees
    them all at the next step. With its start-up thresholds, glibc returns
    that memory to the system at once, and the next minibatch faults every
    page in again: in the benchmark's pipeline-s2 task on a 2-core x86-64 VM,
    1.4 million minor faults and 3 s of system time in an 11 s task. The
    values set here are the most that glibc's own dynamic thresholds reach
    (mmap above 32 MB, trim above 64 MB); setting them turns that dynamic
    adjustment off. Other C libraries ignore them or lack the call.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


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
        """Accumulated gradient; exactly zero for tensors unused by the loss."""
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
        """Accumulate d(self)/d(leaf) into every reachable tensor. Scalar only."""
        if self.data.size != 1:
            raise ShapeMismatchError(
                f"backward() needs a scalar, got shape {self.data.shape}"
            )
        global _deferred
        order = _toposort(self)
        self._grad = np.ones_like(self.data)
        outer, _deferred = _deferred, {}
        try:
            for node in reversed(order):
                if node._bw is not None and node._grad is not None:
                    node._bw(node._grad)
            pending = _deferred
        finally:
            _deferred = outer
        for leaf, parts in pending.items():
            _fold_items(leaf, parts)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

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

    def reshape(self, shape):
        return reshape(self, shape)


def param(data, rng=None, scale: float | None = None, shape=None) -> Tensor:
    """Leaf tensor with gradient tracking.

    With ``rng`` and ``shape`` given, initializes uniform in [-scale, scale].
    """
    if rng is not None:
        if shape is None or scale is None:
            raise ValueError("rng initialization needs shape and scale")
        data = rng.uniform(-scale, scale, size=shape)
    return Tensor(data, requires_grad=True)


class ParamTree:
    """Base of the parameter dataclasses: one walk for training and checkpoints.

    A ``Tensor`` field is a leaf, a list of Tensors gives the leaves
    ``<name>_0``, ``<name>_1``, ..., and a nested tree is flattened with ``_``
    (``se`` + ``w1`` -> ``se_w1``). A field's ``stem`` metadata replaces its
    name on disk. Other fields (ints, strs) are static: they are not stored
    and are passed to ``from_named``.
    """

    prefix: ClassVar[str] = ""

    def _leaves(self, stem: str = ""):
        for f in fields(self):
            value = getattr(self, f.name)
            name = stem + f.metadata.get("stem", f.name)
            if isinstance(value, Tensor):
                yield name, value
            elif isinstance(value, ParamTree):
                yield from value._leaves(name + "_")
            elif isinstance(value, list):
                for i, t in enumerate(value):
                    yield f"{name}_{i}", t

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self._leaves()]

    def named(self, prefix: str | None = None) -> dict:
        """Checkpoint arrays keyed ``<prefix>/<leaf name>``."""
        prefix = self.prefix if prefix is None else prefix
        return {f"{prefix}/{name}": t.data for name, t in self._leaves()}

    @classmethod
    def from_named(cls, named: dict, prefix: str | None = None, **static):
        """Rebuild from ``named()`` output; ``static`` supplies the non-tensor fields."""
        prefix = cls.prefix if prefix is None else prefix
        return cls._build(named, prefix + "/", static)

    @classmethod
    def _build(cls, named: dict, stem: str, static: dict):
        kwargs = dict(static)
        hints = get_type_hints(cls)
        for f in fields(cls):
            kind = hints[f.name]
            name = stem + f.metadata.get("stem", f.name)
            if kind is Tensor:
                if name not in named:
                    raise DataFormatError(f"checkpoint has no tensor {name!r}")
                kwargs[f.name] = param(named[name])
            elif get_origin(kind) is list:
                items = []
                while f"{name}_{len(items)}" in named:
                    items.append(param(named[f"{name}_{len(items)}"]))
                kwargs[f.name] = items
            elif isinstance(kind, type) and issubclass(kind, ParamTree):
                kwargs[f.name] = kind._build(named, name + "_", {})
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
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p not in seen:
                stack.append((p, False))
    return order


def _acc(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t._grad is None:
        # one allocation with the values and memory layout of zeros_like(t.data) += g
        t._grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t._grad += g


_deferred = None  # leaf -> its per-item gradient parts, while a backward pass runs


def _acc_items(t: Tensor, parts: np.ndarray):
    """Accumulate per-item gradients ``parts`` [N, *t.shape] into a tensor
    shared by N items. During a backward pass a leaf's parts wait for its
    end (``_fold_items``); otherwise they are added now, item by item."""
    if not t.requires_grad:
        return
    if _deferred is not None and t._bw is None:
        _deferred.setdefault(t, []).append(parts)
    else:
        _fold_items(t, [parts])


def _fold_items(t: Tensor, parts: list):
    """Add the per-item parts [N, *t.shape], all with one N, in item-major
    order: item 0 of each part in turn, then item 1 of each, and so on."""
    if len({len(p) for p in parts}) != 1:
        raise ShapeMismatchError(
            f"per-item gradient parts of {sorted({len(p) for p in parts})} items: "
            "the items of one backward pass must be the same"
        )
    seq = np.stack(parts, axis=1).reshape((-1,) + t.data.shape)
    first = np.zeros_like(t.data) if t._grad is None else t._grad
    # add.accumulate is a sequential running sum: ((first + p0) + p1) + ...
    t._grad = np.add.accumulate(np.concatenate([first[None], seq]), axis=0)[-1, ...]


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


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # split form avoids overflow in exp for large |x|
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out_data = np.where(x >= 0, 1.0 / d, e / d)

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

    return _node(np.where(mask, a.data, 0.0), (a,), bw)


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


def share(t: Tensor, n: int) -> Tensor:
    """``t`` shared by n items, [n, *t.shape], for elementwise ops with [n, ...]
    arrays. Its gradient reaches ``t`` as n per-item parts."""
    def bw(g):
        _acc_items(t, g)

    return _node(np.broadcast_to(t.data, (n,) + t.data.shape), (t,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix-vector product [m,n] @ [n], or [m,n] @ [N,n] -> [N,m] for N
    items: one GEMV per item, ``a`` shared by the items."""
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
            _acc_items(a, g[:, :, None] * b.data[:, None, :])  # np.outer per item
            _acc(b, np.matmul(a.data.T, g[:, :, None])[:, :, 0])

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


def _col2im(dcols: np.ndarray, plan: _ConvPlan, n: int) -> np.ndarray:
    """Gradient [N,C,H,W] of N maps whose ``_pad`` + gather gave the im2col
    gradient ``dcols`` [N, H'W', C k k].

    Each pixel sums its taps into 0.0 in (a, b) order: one add per tap, into a
    channel-last buffer, so that each add reads its tap's columns in order.
    """
    c_in, hp, wp = plan.padded
    k, d, h_out, w_out, p = plan.k, plan.dilation, plan.h_out, plan.w_out, plan.padding
    taps = dcols.reshape(n, h_out, w_out, c_in, k, k)
    dxp = np.zeros((n, hp, wp, c_in))
    for a in range(k):
        for b in range(k):
            dxp[:, a * d:a * d + h_out, b * d:b * d + w_out] += taps[..., a, b]
    dxp = dxp.transpose(0, 3, 1, 2)
    return dxp[..., p:-p, p:-p] if p else dxp


def conv_items(x: Tensor, kernels, padding: int = 0, dilation: int = 1) -> list:
    """Cross-correlation of N maps [N,C_in,H,W] with each kernel in ``kernels``.

    A kernel is shared by the items, [C_out,C_in,k,k], or has one per item,
    [N,C_out,C_in,k,k]. Returns one [N,C_out,H',W'] node per kernel. Zero
    padding, square odd kernels, unit stride; ``dilation`` spaces the kernel
    taps (effective size k + (k-1)(dilation-1)). The im2col is gathered once
    for all kernels; each kernel makes one stacked ``np.matmul`` and scatters
    its own input gradient (scattering the sum of the kernels' column
    gradients would round differently).
    """
    xd = x.data
    if xd.ndim != 4:
        raise ShapeMismatchError(f"conv_items expects [N,C,H,W] maps, got shape {xd.shape}")
    n = xd.shape[0]
    plans = [_conv_plan(xd.shape[1:], kern.data.shape[-4:], padding, dilation)
             for kern in kernels]
    c_in, h_out, w_out = plans[0].c_in, plans[0].h_out, plans[0].w_out
    xp = _pad(xd, plans[0].padded, padding)
    # im2col: row (i, j), column (c, a, b) holds xp[c, i + a*dilation, j + b*dilation],
    # C-contiguous. For a 1x1 kernel it is the [H*W, C] transposed view of each
    # map: the GEMM's rounding depends on its operands' layout, so that layout stays.
    cols = (xp.reshape(n, c_in, -1).transpose(0, 2, 1) if plans[0].k == 1
            else _gather(xp, plans[0].gather))
    outs = []
    for kern, plan in zip(kernels, plans):
        kd = kern.data
        if kd.ndim == 5 and kd.shape[0] != n or kd.ndim not in (4, 5):
            raise ShapeMismatchError(f"kernels {kd.shape} do not fit {n} items")
        kmat = kd.reshape(kd.shape[:-3] + (-1,))  # [C_out, C_in k k], per item if 5-D
        out_data = np.matmul(cols, kmat.swapaxes(-1, -2)).transpose(0, 2, 1)
        outs.append(_node(out_data.reshape(n, plan.c_out, h_out, w_out), (x, kern),
                          _conv_items_bw(x, kern, cols, kmat, plan, n)))
    return outs


def _conv_items_bw(x, kern, cols, kmat, plan, n):
    kd = kern.data

    def bw(g):
        gmat = g.reshape(n, kmat.shape[-2], -1)
        if kern.requires_grad:
            dk = np.matmul(gmat, cols)
            if kd.ndim == 5:
                _acc(kern, dk.reshape(kd.shape))
            else:
                _acc_items(kern, dk.reshape((n,) + kd.shape))
        if x.requires_grad:
            _acc(x, _col2im(np.matmul(gmat.transpose(0, 2, 1), kmat), plan, n))

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


def cosine_similarity(u: Tensor, v: Tensor) -> Tensor:
    """dot(u, v) / (|u| |v|) for 1-D tensors of equal length."""
    if u.data.shape != v.data.shape or u.data.ndim != 1:
        raise ShapeMismatchError(
            f"cosine_similarity expects equal 1-D shapes, got {u.data.shape} and {v.data.shape}"
        )
    if not np.any(u.data) or not np.any(v.data):
        raise DomainError("cosine_similarity undefined for a zero-norm vector")
    nu = sqrt(tsum(mul(u, u)))
    nv = sqrt(tsum(mul(v, v)))
    return div(tsum(mul(u, v)), mul(nu, nv))


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
