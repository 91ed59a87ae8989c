"""Convolutional yield head and final supervised training.

The head is a single 3x3 same-padding convolution over the mask-selected
feature channels; its spatial mean is the per-plot yield prediction. Yields
are standardized to zero mean / unit variance on the training split for
fitting and de-standardized for reporting.

With the encoder frozen the head's prediction is linear in its parameters:
the spatial mean of W * F + b is b plus the sum over (c, a, b') of
W[c, a, b'] times the spatial mean of channel c of the zero-padded map
shifted by (a, b'). ``fit_head`` solves that ridge regression exactly;
``train_final`` then fine-tunes head and encoder together by SGD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import contrastive as ct
from . import eo
from . import tensor as tc
from .errors import DomainError, NumericalError, ShapeMismatchError
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
    sol = eo.ridge_solve(x, np.column_stack([y, np.eye(n)]), lam, "head warm-up")
    w, inv_xt = sol[:, 0], sol[:, 1:]  # (x^T x + lam I')^-1 x^T, [d, n]
    hat = np.einsum("ij,ji->i", x, inv_xt)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        err = float(np.mean(((y - x @ w) / (1.0 - hat)) ** 2))
    return w, err if np.isfinite(err) else np.inf


def mse_loss(y: Tensor, y_pred: Tensor) -> Tensor:
    if y.data.shape != y_pred.data.shape:
        raise ShapeMismatchError(
            f"mse_loss length mismatch: {y.data.shape} vs {y_pred.data.shape}"
        )
    if y.data.size < 1:
        raise ShapeMismatchError("mse_loss needs at least one element")
    diff = y - y_pred
    return (diff * diff).mean()


@dataclass
class TrainResult:
    head: HeadParams
    lstm: object
    ssa: object
    y_mean: float
    y_std: float
    curve: list  # (epoch, train_mse, val_mse) in standardized units; epoch 0 = init
    best_epoch: int
    diverged_at: int | None = None  # fine-tune epoch whose loss went non-finite
    ridge_lambda: float | None = None  # the warm-up's chosen penalty


def _selection(mask) -> np.ndarray:
    sel = np.flatnonzero(np.asarray(mask, dtype=bool))
    if sel.size == 0:
        raise DomainError("feature mask selects no channels")
    return sel


def _standardized(y, train_idx):
    """Mean and standard deviation of the train yields (1.0 for a constant
    split), and every yield in those units."""
    y = np.asarray(y, dtype=np.float64)
    y_mean = float(np.mean(y[train_idx]))
    y_std = float(np.std(y[train_idx])) or 1.0
    return y_mean, y_std, (y - y_mean) / y_std


def _features(frames_by_sample, idx, lstm_p, ssa_p, sel, pretrain_batch) -> np.ndarray:
    """Forward-only selected encoder features [N,C_sel,H,W] of the plots ``idx``."""
    feats = ct.encode_chunks([frames_by_sample[i] for i in idx], lstm_p, ssa_p, pretrain_batch)
    return np.take(feats, sel, axis=1)


def _split_mses(feats, head: HeadParams, y_known, n_train: int):
    """Train and validation MSE of the head on the features of the train
    plots followed by the validation plots, from one forward pass."""
    with tc.no_grad():
        preds = predict_yield(Tensor(feats), head)[1].data
    err = (preds - y_known) ** 2
    return float(np.mean(err[:n_train])), float(np.mean(err[n_train:]))


def fit_head(frames_by_sample, lstm_p, ssa_p, mask, y, train_idx, val_idx, *,
             pretrain_batch: int) -> TrainResult:
    """The head warm-up: ridge regression of the standardized train yields
    on the frozen encoder's features (``head_design``), with the penalty
    from ``RIDGE_GRID`` whose leave-one-out error over the train plots is
    least (the first on a tie). The validation plots play no part in the
    fit. The result's curve is one row, epoch 0; ``pretrain_batch`` bounds
    each forward-only encoder pass (``contrastive.encode_chunks``).
    """
    sel = _selection(mask)
    y_mean, y_std, y_star = _standardized(y, train_idx)
    known = list(train_idx) + list(val_idx)
    n_train = len(train_idx)
    feats = _features(frames_by_sample, known, lstm_p, ssa_p, sel, pretrain_batch)
    x, target = head_design(feats[:n_train]), y_star[known[:n_train]]
    fits = [ridge_loo(x, target, lam) for lam in RIDGE_GRID]
    best = int(np.argmin([err for _, err in fits]))
    if not np.isfinite(fits[best][1]):
        raise NumericalError("head warm-up: no ridge penalty gives a finite leave-one-out error")
    w = fits[best][0]
    head = HeadParams(w=tc.param(w[:-1].reshape(1, sel.size, 3, 3)), b=tc.param(w[-1]))
    row = _split_mses(feats, head, y_star[known], n_train)
    return TrainResult(head=head, lstm=lstm_p, ssa=ssa_p, y_mean=y_mean, y_std=y_std,
                       curve=[(0, *row)], best_epoch=0, ridge_lambda=RIDGE_GRID[best])


def train_final(frames_by_sample, lstm_p, ssa_p, mask, y, train_idx, val_idx, rng,
                epochs: int = 80, lr: float = 0.05, batch_size: int = 8,
                patience: int | None = 5, head: HeadParams | None = None,
                start: tuple | None = None, *, pretrain_batch: int) -> TrainResult:
    """The fine-tune: SGD on the prediction MSE over the train split, of the
    head (zeros unless given) and the encoder together.

    Early stopping restores the parameters of the best validation epoch;
    ``patience=None`` disables it. A non-finite minibatch loss ends training
    at that epoch (``diverged_at``) and the best validation epoch is
    restored. ``start`` is the (train MSE, val MSE) of the parameters as
    given, when the caller has already evaluated them (``fit_head``'s row);
    otherwise epoch 0 evaluates them. ``pretrain_batch`` is the pretraining
    minibatch size, which bounds each forward-only encoder pass
    (``contrastive.encode_chunks``).
    """
    sel = _selection(mask)
    y_mean, y_std, y_star = _standardized(y, train_idx)
    if head is None:
        head = init_head(sel.size)
    params = head.parameters() + lstm_p.parameters() + ssa_p.parameters()
    train_list = list(train_idx)
    known = train_list + list(val_idx)  # the order of the evaluation pass

    def predict(idx):
        feats = ct.encode_features(np.stack([frames_by_sample[i] for i in idx]), lstm_p, ssa_p)
        return predict_yield(tc.take_channels(feats, sel), head)[1]

    def split_mses():
        feats = _features(frames_by_sample, known, lstm_p, ssa_p, sel, pretrain_batch)
        return _split_mses(feats, head, y_star[known], len(train_list))

    def snapshot():
        return [p.data.copy() for p in params]

    def restore(snap):
        for p, s in zip(params, snap):
            p.data[...] = s

    def batch_mse(batch):
        return mse_loss(Tensor(y_star[batch]), predict(batch))

    curve = [(0, *(split_mses() if start is None else start))]
    best_val = curve[0][2]
    best_snap = snapshot()
    best_epoch = 0
    diverged_at = None
    stale = 0
    for epoch in range(1, epochs + 1):
        try:
            for batch in tc.minibatches(train_list, batch_size, rng):
                tc.sgd_step(params, lambda: batch_mse(batch), lr, "fine-tune")
        except NumericalError:
            diverged_at = epoch  # the fine-tune ends; the best snapshot is restored below
            break
        tr, va = split_mses()
        curve.append((epoch, tr, va))
        if va < best_val - 1e-12:
            best_val, best_snap, best_epoch, stale = va, snapshot(), epoch, 0
        else:
            stale += 1
            if patience is not None and stale >= patience:
                break
    if patience is not None or diverged_at is not None:
        restore(best_snap)
    return TrainResult(head=head, lstm=lstm_p, ssa=ssa_p, y_mean=y_mean, y_std=y_std,
                       curve=curve, best_epoch=best_epoch, diverged_at=diverged_at)
