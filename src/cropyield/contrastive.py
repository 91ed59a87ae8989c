"""Contrastive pre-training of the ConvLSTM + attention encoder.

Each training sample yields two stochastically augmented copies of its frame
sequence. Both are embedded (recurrent encoding, attention fusion at the
final step, global pooling, linear projection) and the loss pulls the two
views of one sample together while pushing apart the second views of every
other sample in the batch. The positive term appears in the denominator as
well, so the per-anchor loss under uniform similarities is exactly log(n).

A minibatch of n samples is one graph: its 2n views are encoded together on
the item axis of the encoder, the n first views and then the n second views,
and the loss takes the two [n, d] halves of the batched embedding. The
held-out similarities embed their views in the same layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import attention as at
from . import convlstm as cl
from . import diffusion as df
from . import tensor as tc
from .errors import DomainError, ShapeMismatchError
from .tensor import Tensor


def embed_sequence(frames, lstm_p: cl.ConvLstmParams, ssa_p: at.SsaParams,
                   proj: Tensor) -> Tensor:
    """Embed N frame sequences [N,T,C,H,W] into fixed-length vectors [N, d]."""
    return proj @ tc.global_avg_pool(encode_features(frames, lstm_p, ssa_p))


def encode_features(frames, lstm_p: cl.ConvLstmParams, ssa_p: at.SsaParams) -> Tensor:
    """Fused feature maps [N, 2 C_hid, H, W] of N frame sequences [N,T,C,H,W]
    at their final step: the channel-selectable representation.

    The attention reads the ``history`` states before the last one, so the
    sequences need at least history + 1 frames.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 5:
        raise ShapeMismatchError(f"expected [N,T,C,H,W] frame sequences, got {frames.shape}")
    t_steps = frames.shape[1]
    a = ssa_p.history
    if t_steps < a + 1:
        raise ShapeMismatchError(
            f"need at least history+1 = {a + 1} frames, got {t_steps}"
        )
    states = cl.convlstm_sequence([frames[:, t] for t in range(t_steps)], lstm_p, None)
    hist = [states[t].h for t in range(t_steps - 1 - a, t_steps - 1)]
    return at.ssa_forward(states[-1].h, hist, ssa_p)


def encode_chunks(frames_list, lstm_p: cl.ConvLstmParams, ssa_p: at.SsaParams,
                  batch_size: int) -> np.ndarray:
    """Forward-only ``encode_features`` of a list of [T,C,H,W] sequences:
    [N, 2 C_hid, H, W]. Each pass encodes at most the 2 x ``batch_size``
    views of a pretraining minibatch, so that no forward-only pass holds
    more than training does."""
    chunk = 2 * batch_size
    with tc.no_grad():
        return np.concatenate([
            encode_features(np.stack(frames_list[s:s + chunk]), lstm_p, ssa_p).data
            for s in range(0, len(frames_list), chunk)])


def _unit_rows(z: Tensor) -> Tensor:
    """Rows of [n, d] scaled to unit length; a zero row has no direction."""
    if not np.all(np.any(z.data, axis=1)):
        raise DomainError("cosine similarity undefined for a zero-norm embedding")
    return z / tc.sqrt(tc.tsum(z * z, axis=1))


def contrastive_loss(z1: Tensor, z2: Tensor, tau: float) -> Tensor:
    """Mean over anchors of -log( e^{s_ii/tau} / sum_j e^{s_ij/tau} ), with
    s_ij the cosine similarity of row i of ``z1`` (anchor i's first view) and
    row j of ``z2`` (sample j's second view), both [n, d]: one [n, n] logit
    matrix and a row-wise log-sum-exp (NT-Xent)."""
    if z1.data.ndim != 2 or z1.data.shape != z2.data.shape:
        raise ShapeMismatchError(
            f"expected two [n, d] embedding blocks of one shape, got {z1.data.shape} "
            f"and {z2.data.shape}")
    if tau <= 0:
        raise DomainError(f"temperature must be positive, got {tau}")
    n = z1.data.shape[0]
    if n < 2:
        raise DomainError("need at least one negative per anchor (batch of >= 2 pairs)")
    u, v = _unit_rows(z1), _unit_rows(z2)
    logits = tc.matmul(v, u) * Tensor(1.0 / tau)  # [i, j] = u_i . v_j / tau
    shift = Tensor(np.max(logits.data, axis=1, keepdims=True))
    lse = tc.log(tc.tsum(tc.exp(logits - shift), axis=1)) + shift
    d = np.arange(n)
    return tc.tmean(lse) - tc.tmean(logits[d, d])


@dataclass
class PretrainResult:
    lstm: cl.ConvLstmParams
    ssa: at.SsaParams
    projection: Tensor
    loss_history: list  # entry 0 is the pre-update evaluation
    stats: dict


def _view_batch(frames_by_sample, idx, den, rng):
    """The augmented views of the n samples ``idx`` on the item axis
    [2n,T,C,H,W]: the n first views, then the n second views, drawn sample by
    sample."""
    views = [df.augment_pair(frames_by_sample[i], den, rng) for i in idx]
    return np.stack([v1 for v1, _ in views] + [v2 for _, v2 in views])


def pretrain_encoder(frames_by_sample, train_idx, val_idx, den, seed_rng, *,
                     epochs: int, lr: float, batch_size: int, hidden_channels: int,
                     shuffle_groups: int, attention_mode: str, conv_mode: str,
                     tau: float = 0.22, embed_dim: int = 16) -> PretrainResult:
    """SGD on the contrastive objective; returns params, history, held-out stats.

    ``frames_by_sample[i]`` is a [T,C,H,W] array (already preprocessed).
    Epoch 0 of the history is measured before any parameter update.
    """
    _, channels, h, w = frames_by_sample[train_idx[0]].shape
    lstm_p = cl.init_convlstm_params(channels, hidden_channels, h, w, at.KERNEL, seed_rng)
    feat_channels = 2 * hidden_channels
    ssa_p = at.init_ssa_params(hidden_channels, seed_rng, groups=shuffle_groups,
                               attention_mode=attention_mode, conv_mode=conv_mode)
    proj = tc.param(seed_rng.uniform(-1.0, 1.0, size=(embed_dim, feat_channels))
                    / math.sqrt(feat_channels))
    params = lstm_p.parameters() + ssa_p.parameters() + [proj]

    def batch_loss(idx_batch, rng):
        views = _view_batch(frames_by_sample, idx_batch, den, rng)
        emb = embed_sequence(views, lstm_p, ssa_p, proj)
        n = len(idx_batch)
        return contrastive_loss(emb[:n], emb[n:], tau)

    def epoch_batches(rng):  # a one-sample chunk has no negative pair
        return [b for b in tc.minibatches(train_idx, batch_size, rng) if len(b) >= 2]

    history_losses = []
    eval_rng = np.random.default_rng(seed_rng.integers(2**63))
    with tc.no_grad():
        losses = [batch_loss(b, eval_rng).item() for b in epoch_batches(eval_rng)]
    history_losses.append(float(np.mean(losses)))

    for _ in range(epochs):
        epoch_rng = np.random.default_rng(seed_rng.integers(2**63))
        epoch_losses = [
            tc.sgd_step(params, lambda: batch_loss(batch, epoch_rng), lr,
                        "contrastive pre-training")
            for batch in epoch_batches(epoch_rng)
        ]
        history_losses.append(float(np.mean(epoch_losses)))

    stats = {
        "epoch0_loss": history_losses[0],
        "uniform_loss": math.log(batch_size),
        "final_loss": history_losses[-1],
    }
    if val_idx:
        holdout_rng = np.random.default_rng(seed_rng.integers(2**63))
        with tc.no_grad():
            pos, neg = holdout_similarities(
                frames_by_sample, val_idx, lstm_p, ssa_p, proj, den, holdout_rng, batch_size,
            )
        stats["holdout_pos_sim"] = pos
        if neg is not None:  # one held-out sample has no negative pair
            stats["holdout_neg_sim"] = neg
            stats["holdout_separation"] = pos - neg
    return PretrainResult(lstm=lstm_p, ssa=ssa_p, projection=proj,
                          loss_history=history_losses, stats=stats)


def holdout_similarities(frames_by_sample, idx, lstm_p, ssa_p, proj, den, rng,
                         batch_size: int):
    """Mean positive-pair and negative-pair cosine similarity on held-out samples.

    The views are laid out as in a pretraining minibatch (``_view_batch``:
    the n first views, then the n second views) and embedded by
    ``encode_chunks``. The negative mean is None when ``idx`` holds a single
    sample; a zero-norm embedding raises DomainError.
    """
    views = _view_batch(frames_by_sample, idx, den, rng)
    with tc.no_grad():
        feats = encode_chunks(views, lstm_p, ssa_p, batch_size)
        emb = (proj @ tc.global_avg_pool(Tensor(feats))).data
    unit = _unit_rows(Tensor(emb)).data
    n = len(idx)
    sims = unit[:n] @ unit[n:].T  # [i, j]: first view of i, second view of j
    neg = float(np.mean(sims[~np.eye(n, dtype=bool)])) if n > 1 else None
    return float(np.mean(np.diag(sims))), neg
