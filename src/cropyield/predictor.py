"""Convolutional yield head and final supervised training.

The head is a single 3x3 same-padding convolution over the mask-selected
feature channels; its spatial mean is the per-plot yield prediction. Yields
are standardized to zero mean / unit variance on the training split for SGD
and de-standardized for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import contrastive as ct
from . import tensor as tc
from .errors import DomainError, NumericalError, ShapeMismatchError
from .tensor import Tensor


@dataclass
class HeadParams(tc.ParamTree):
    prefix = "head"

    w: Tensor  # [1, C_sel, 3, 3]
    b: Tensor  # scalar bias


def init_head(c_sel: int) -> HeadParams:
    if c_sel < 1:
        raise DomainError("yield head needs a non-empty feature selection")
    return HeadParams(w=tc.param(np.zeros((1, c_sel, 3, 3))), b=tc.param(np.zeros(())))


def head_columns(f_opt: Tensor) -> Tensor:
    """The head's im2col of N plots' selected features [N,C_sel,H,W]."""
    if f_opt.data.ndim != 4 or f_opt.data.shape[1] < 1:
        raise DomainError(f"expected non-empty [N,C_sel,H,W] features, got {f_opt.data.shape}")
    return tc.im2col(f_opt, 3, padding=1)


def predict_yield(cols: Tensor, p: HeadParams, items=None):
    """Yield maps W * F + b [M,1,H,W] of plots from their ``head_columns``,
    and the maps' spatial means as the M predictions: the M ``items`` of
    ``cols`` in that order, or all of them."""
    ymap = tc.bias_add(tc.conv_cols(cols, p.w, items), p.b)
    return ymap, tc.item_mean(ymap)


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


def train_final(frames_by_sample, lstm_p, ssa_p, mask, y, train_idx, val_idx, rng,
                epochs: int = 80, lr: float = 0.05, batch_size: int = 8,
                patience: int | None = 5, finetune_encoder: bool = False,
                head: HeadParams | None = None, start: tuple | None = None, *,
                pretrain_batch: int) -> TrainResult:
    """SGD on the prediction MSE over the train split.

    The head always trains; the encoder joins in when ``finetune_encoder``.
    Early stopping restores the parameters of the best validation epoch;
    ``patience=None`` disables it. A non-finite minibatch loss raises
    NumericalError, except in the fine-tune: there it ends training at that
    epoch (``diverged_at``) and the best validation epoch is restored.
    ``start`` is the (train MSE, val MSE) of the parameters as given, when
    the caller has already evaluated them (the warm-up's last curve row);
    otherwise epoch 0 evaluates them. ``pretrain_batch`` is the pretraining
    minibatch size, which bounds each forward-only encoder pass
    (``contrastive.encode_chunks``).
    """
    mask = np.asarray(mask, dtype=bool)
    sel = np.flatnonzero(mask)
    if sel.size == 0:
        raise DomainError("feature mask selects no channels")
    y = np.asarray(y, dtype=np.float64)
    y_mean = float(np.mean(y[train_idx]))
    y_std = float(np.std(y[train_idx]))
    if y_std == 0.0:
        y_std = 1.0
    y_star = (y - y_mean) / y_std

    if head is None:
        head = init_head(sel.size)
    params = list(head.parameters())
    if finetune_encoder:
        params += lstm_p.parameters() + ssa_p.parameters()

    train_list = list(train_idx)
    known = train_list + list(val_idx)  # the order of the evaluation pass

    def known_columns():
        """The head's im2col of every train and validation plot, forward only."""
        with tc.no_grad():
            feats = ct.encode_chunks([frames_by_sample[i] for i in known], lstm_p, ssa_p,
                                     pretrain_batch)
            return head_columns(Tensor(np.take(feats, sel, axis=1)))

    if finetune_encoder:
        def predict(idx):
            feats = ct.encode_features(np.stack([frames_by_sample[i] for i in idx]), lstm_p, ssa_p)
            return predict_yield(head_columns(tc.take_channels(feats, sel)), head)[1]
    else:
        # the encoder is frozen: build the head's im2col of every plot once;
        # a chunk picks its rows by index, so the columns are never copied
        frozen = known_columns()
        row = {i: r for r, i in enumerate(known)}

        def predict(idx):
            return predict_yield(frozen, head, [row[i] for i in idx])[1]

    def split_mses():
        """Train and validation MSE, from one forward pass over both splits."""
        with tc.no_grad():
            preds = predict_yield(known_columns() if finetune_encoder else frozen, head)[1].data
        err = (preds - y_star[known]) ** 2
        return float(np.mean(err[:len(train_list)])), float(np.mean(err[len(train_list):]))

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
                tc.sgd_step(params, lambda: batch_mse(batch), lr, "final training")
        except NumericalError:
            if not finetune_encoder:
                raise
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
