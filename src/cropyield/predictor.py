"""Convolutional yield head and its closed-form fit on the frozen encoder.

The head is a single 3x3 same-padding convolution over the mask-selected
feature channels; its spatial mean is the per-plot yield prediction. Yields
are standardized to zero mean / unit variance on the training split for
fitting and de-standardized for reporting.

With the encoder frozen the head's prediction is linear in its parameters:
the spatial mean of W * F + b is b plus the sum over (c, a, b') of
W[c, a, b'] times the spatial mean of channel c of the zero-padded map
shifted by (a, b'). ``fit_head`` solves that ridge regression exactly and
is the train stage's only trainer: the encoder stays as pre-training left
it (the linear evaluation of a contrastive encoder, Chen et al. 2020).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import contrastive as ct
from . import eo
from . import tensor as tc
from .errors import DomainError, NumericalError
from .tensor import Tensor

# the head's candidate ridge penalties; its features and targets are O(1)
RIDGE_GRID = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)


@dataclass
class HeadParams(tc.ParamTree):
    prefix = "head"

    w: Tensor  # [1, C_sel, 3, 3]
    b: Tensor  # scalar bias


def init_head(c_sel: int) -> HeadParams:
    if c_sel < 1:
        raise DomainError("yield head needs a non-empty feature selection")
    return HeadParams(w=tc.param(np.zeros((1, c_sel, 3, 3))), b=tc.param(np.zeros(())))


def predict_yield(f_sel: Tensor, p: HeadParams):
    """Yield maps W * F + b [N,1,H,W] of N plots' selected features
    [N,C_sel,H,W], and the maps' spatial means as the N predictions."""
    n = f_sel.data.shape[0]
    (conv,) = tc.conv_items(f_sel, [p.w], padding=1)
    ymap = conv + p.b
    return ymap, tc.reshape(tc.global_avg_pool(ymap), (n,))


def head_design(feats: np.ndarray) -> np.ndarray:
    """The head's regression design for N plots' selected features
    [N,C,H,W]: [N, 9C + 1]. Column (c, a, b) in the order of ``w.ravel()``
    is the spatial mean of channel c of the zero-padded map shifted by
    (a, b); the last column, all ones, is the intercept."""
    n, c, h, w = feats.shape
    padded = np.pad(feats, ((0, 0), (0, 0), (1, 1), (1, 1)))
    taps = [padded[..., a:a + h, b:b + w].mean(axis=(-2, -1))
            for a in range(3) for b in range(3)]
    return np.column_stack([np.stack(taps, axis=-1).reshape(n, 9 * c), np.ones(n)])


def ridge_loo(x: np.ndarray, y: np.ndarray, lam: float):
    """Ridge weights for the design ``x`` [n, d] (intercept last) and the
    targets ``y`` [n], and their exact leave-one-out mean squared error.

    Leaving plot i out moves its residual e_i to e_i / (1 - h_ii), where h
    is the hat matrix x (x^T x + lam I')^-1 x^T (Golub, Heath & Wahba 1979),
    so one solve gives all n refits. A plot the fit interpolates exactly
    (h_ii = 1) makes the error infinite.
    """
    n = len(y)
    sol = eo.ridge_solve(x, np.column_stack([y, np.eye(n)]), lam, "head fit")
    w, inv_xt = sol[:, 0], sol[:, 1:]  # (x^T x + lam I')^-1 x^T, [d, n]
    hat = np.einsum("ij,ji->i", x, inv_xt)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        err = float(np.mean(((y - x @ w) / (1.0 - hat)) ** 2))
    return w, err if np.isfinite(err) else np.inf


@dataclass
class TrainResult:
    head: HeadParams
    y_mean: float
    y_std: float
    curve: list  # one row (0, train_mse, val_mse) in standardized units
    ridge_lambda: float  # the penalty the leave-one-out error chose


def fit_head(frames_by_sample, lstm_p, ssa_p, mask, y, train_idx, val_idx, *,
             pretrain_batch: int) -> TrainResult:
    """Ridge regression of the standardized train yields on the frozen
    encoder's features (``head_design``), with the penalty from
    ``RIDGE_GRID`` whose leave-one-out error over the train plots is least
    (the first on a tie). The validation plots play no part in the fit.
    The result's curve is one row, epoch 0; ``pretrain_batch`` bounds each
    forward-only encoder pass (``contrastive.encode_chunks``).
    """
    sel = np.flatnonzero(np.asarray(mask, dtype=bool))
    if sel.size == 0:
        raise DomainError("feature mask selects no channels")
    y = np.asarray(y, dtype=np.float64)
    y_mean = float(np.mean(y[train_idx]))
    y_std = float(np.std(y[train_idx])) or 1.0  # 1.0 for a constant split
    known = list(train_idx) + list(val_idx)
    n_train = len(train_idx)
    y_known = (y[known] - y_mean) / y_std
    feats = ct.encode_chunks([frames_by_sample[i] for i in known], lstm_p, ssa_p, pretrain_batch)
    feats = np.take(feats, sel, axis=1)
    x = head_design(feats[:n_train])
    fits = [ridge_loo(x, y_known[:n_train], lam) for lam in RIDGE_GRID]
    best = int(np.argmin([err for _, err in fits]))
    if not np.isfinite(fits[best][1]):
        raise NumericalError("head fit: no ridge penalty gives a finite leave-one-out error")
    w = fits[best][0]
    head = HeadParams(w=tc.param(w[:-1].reshape(1, sel.size, 3, 3)), b=tc.param(w[-1]))
    with tc.no_grad():
        preds = predict_yield(Tensor(feats), head)[1].data
    err = (preds - y_known) ** 2
    row = (0, float(np.mean(err[:n_train])), float(np.mean(err[n_train:])))
    return TrainResult(head=head, y_mean=y_mean, y_std=y_std, curve=[row],
                       ridge_lambda=RIDGE_GRID[best])
