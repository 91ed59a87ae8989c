"""Spectral-spatial feature fusion over ConvLSTM hidden maps.

Two branches meet in a channel concatenation. The spatial branch pushes the
current hidden map through a standard convolution and a conditionally
parameterized convolution whose kernel is a routed convex mixture of expert
kernels. The temporal branch recalibrates each past hidden map with
squeeze-and-excitation channel attention, mixes channel groups with a
shuffle permutation, and sums the maps under learnable per-offset weights.

Both branches are composition toggles so that ablations (attention order,
single mechanisms, plain or dilated convolutions) can be run from config.
Maps carry a leading item axis, [N, C, H, W]: N sequences are fused at
once, with shared weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tc
from .errors import ConfigError, DomainError, ShapeMismatchError
from .tensor import Tensor

# the first mode of each is the paper's composition and the default
ATTENTION_MODES = ("senet_shuffle", "shuffle_senet", "se_only", "shuffle_only", "none")
CONV_MODES = ("conv_condconv", "conv_only", "condconv_only", "dilated")
DILATION = 2  # tap spacing of the standard conv in conv_mode "dilated"
KERNEL = 3  # size of every encoder convolution: the ConvLSTM gates' and the spatial branch's
SE_REDUCTION = 2  # squeeze-and-excitation bottleneck: C -> C / SE_REDUCTION -> C
HISTORY = 2  # past hidden maps the temporal branch reads


def check_modes(attention_mode: str, conv_mode: str) -> None:
    """The one validation of the ablation modes, for configs and parameter sets."""
    if attention_mode not in ATTENTION_MODES:
        raise ConfigError(
            f"unknown attention_mode {attention_mode!r}, expected one of {ATTENTION_MODES}"
        )
    if conv_mode not in CONV_MODES:
        raise ConfigError(f"unknown conv_mode {conv_mode!r}, expected one of {CONV_MODES}")


@dataclass
class SeParams(tc.ParamTree):
    w1: Tensor  # [C/r, C]
    w2: Tensor  # [C, C/r]

    @property
    def channels(self) -> int:
        return self.w2.data.shape[0]


@dataclass
class SsaParams(tc.ParamTree):
    prefix = "ssa"

    se: SeParams
    groups: int  # channel-shuffle group count, divides C
    w_temporal: Tensor  # [a], one weight per history offset
    conv_kernel: Tensor  # [C_out, C, k, k] standard conv of the spatial stack
    conv_bias: Tensor  # [C_out]
    routing: Tensor  # [K, C] routing matrix applied to pooled input
    # K kernels [C_out, C, k, k] for the conditional conv
    experts: list[Tensor] = field(metadata={"stem": "expert"})
    attention_mode: str
    conv_mode: str

    def __post_init__(self):
        # _attend and conv_stack fall through to "none"/"dilated" on any other value
        check_modes(self.attention_mode, self.conv_mode)

    @property
    def history(self) -> int:
        return self.w_temporal.data.shape[0]


def init_ssa_params(channels: int, rng, *, groups: int, experts: int = 2,
                    history: int = HISTORY, attention_mode: str = ATTENTION_MODES[0],
                    conv_mode: str = CONV_MODES[0]) -> SsaParams:
    if channels % SE_REDUCTION != 0:
        raise ConfigError(f"SE reduction {SE_REDUCTION} must divide channel count {channels}")
    if channels % groups != 0:
        raise ConfigError(f"shuffle groups {groups} must divide channel count {channels}")
    if experts < 1:
        raise ConfigError(f"need at least one expert kernel, got {experts}")
    k = KERNEL
    mid = channels // SE_REDUCTION
    s_se1 = 1.0 / math.sqrt(channels)
    s_se2 = 1.0 / math.sqrt(mid)
    s_conv = 1.0 / math.sqrt(channels * k * k)
    se = SeParams(
        w1=tc.param(rng.uniform(-s_se1, s_se1, size=(mid, channels))),
        w2=tc.param(rng.uniform(-s_se2, s_se2, size=(channels, mid))),
    )
    return SsaParams(
        se=se,
        groups=groups,
        w_temporal=tc.param(np.full(history, 1.0 / history)),
        conv_kernel=tc.param(rng.uniform(-s_conv, s_conv, size=(channels, channels, k, k))),
        conv_bias=tc.param(np.zeros(channels)),
        experts=[tc.param(rng.uniform(-s_conv, s_conv, size=(channels, channels, k, k)))
                 for _ in range(experts)],
        routing=tc.param(rng.uniform(-s_se1, s_se1, size=(experts, channels))),
        attention_mode=attention_mode,
        conv_mode=conv_mode,
    )


def se_attention(hmap: Tensor, p: SeParams) -> Tensor:
    """Scale each channel by sigmoid(W2 relu(W1 pool(H))); scales lie in (0,1)."""
    if hmap.data.ndim != 4 or hmap.data.shape[1] != p.channels:
        raise ShapeMismatchError(
            f"SE params expect [N,{p.channels},H,W] maps, got {hmap.data.shape}"
        )
    squeeze = tc.global_avg_pool(hmap)
    scale = tc.sigmoid(p.w2 @ tc.relu(p.w1 @ squeeze))
    return tc.reshape(scale, scale.data.shape + (1, 1)) * hmap


def shuffle_permutation(channels: int, groups: int) -> np.ndarray:
    return np.arange(channels).reshape(groups, channels // groups).T.ravel()


def channel_shuffle(x: Tensor, groups: int) -> Tensor:
    """Reshape channels to [g, C/g], transpose, flatten: cross-group mixing."""
    c = x.data.shape[-3]
    if c % groups != 0:
        raise ShapeMismatchError(f"groups {groups} must divide channel count {c}")
    return tc.take_channels(x, shuffle_permutation(c, groups))


def _attend(hmap: Tensor, p: SsaParams) -> Tensor:
    mode = p.attention_mode
    if mode == "senet_shuffle":
        return channel_shuffle(se_attention(hmap, p.se), p.groups)
    if mode == "shuffle_senet":
        return se_attention(channel_shuffle(hmap, p.groups), p.se)
    if mode == "se_only":
        return se_attention(hmap, p.se)
    if mode == "shuffle_only":
        return channel_shuffle(hmap, p.groups)
    return hmap  # "none"


def temporal_attention(hist, p: SsaParams) -> Tensor:
    """Weighted sum over attended past hidden maps, oldest first."""
    hist = list(hist)
    if not hist:
        raise DomainError("temporal attention needs a non-empty history")
    if len(hist) != p.history:
        raise ShapeMismatchError(
            f"history length {len(hist)} != temporal weight count {p.history}"
        )
    total = None
    for tau, hmap in enumerate(hist):
        term = p.w_temporal[tau] * _attend(hmap, p)
        total = term if total is None else total + term
    return total


def cond_conv(x: Tensor, p: SsaParams) -> Tensor:
    """Convolution with an input-routed convex mixture of expert kernels: each
    item mixes its own kernel [C_out, C, k, k]."""
    n = x.data.shape[0]
    logits = p.routing @ tc.global_avg_pool(x)
    pi = tc.softmax1d(logits)
    mixed = None
    for k, expert in enumerate(p.experts):
        term = tc.reshape(pi[:, k], (n, 1, 1, 1, 1)) * expert
        mixed = term if mixed is None else mixed + term
    pad = (mixed.data.shape[-1] - 1) // 2
    return tc.conv_items(x, [mixed], padding=pad)[0]


def routing_weights(x: Tensor, p: SsaParams) -> np.ndarray:
    """Routing probabilities [N, K] for inspection/testing: positive, each row
    summing to 1."""
    return tc.softmax1d(p.routing @ tc.global_avg_pool(x)).data


def conv_stack(h_t: Tensor, p: SsaParams) -> Tensor:
    """Spatial branch: standard or dilated conv (+ReLU), then conditional conv,
    mode-toggled."""
    if p.conv_mode == "condconv_only":
        return cond_conv(h_t, p)
    # dilated: same kernel tensor, taps spread by DILATION
    dilation = DILATION if p.conv_mode == "dilated" else 1
    pad = (p.conv_kernel.data.shape[2] - 1) * dilation // 2
    mid = tc.relu(tc.conv_items(h_t, [p.conv_kernel], pad, dilation)[0]
                  + tc.reshape(p.conv_bias, (-1, 1, 1)))
    return cond_conv(mid, p) if p.conv_mode == "conv_condconv" else mid


def ssa_forward(h_t: Tensor, hist, p: SsaParams) -> Tensor:
    """Channel concatenation [spatial branch | temporal branch]."""
    return tc.concat([conv_stack(h_t, p), temporal_attention(hist, p)], axis=1)
