"""Diffusion-style augmentation: forward noising, a learned reverse step, and
the training objective for the small convolutional denoiser.

The forward kernel is q(z_t | z_0) = N(beta_t * z_0, (1 - beta_t) I): the
mean coefficient is beta_t itself, so beta decreasing toward 0 walks the
image toward pure noise. The denoiser is a two-layer conv net conditioned on
t through an extra constant channel; the same network serves as the mean
predictor for the reverse step and as the trajectory generator whose output
is penalized for drifting away from the recorded noisy target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .errors import DomainError, ShapeMismatchError
from .tensor import Tensor

BETA_START = 0.95  # beta_1 of the linear schedule: the first step keeps most of the image
SIGMA_SCALE = 0.1  # reverse-step noise, as a fraction of the forward step's
DENOISER_HIDDEN = 8  # channels of the denoiser's hidden layer
CONSISTENCY_WEIGHT = 0.1  # weight of the trajectory penalty in the denoiser's training loss


@dataclass(frozen=True)
class NoiseSchedule:
    betas: tuple  # beta_t for t = 1..steps, each in [0, 1], non-increasing

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=np.float64)
        if b.ndim != 1 or b.size < 1:
            raise DomainError("schedule needs at least one beta")
        if b.min() < 0.0 or b.max() > 1.0:
            raise DomainError(f"betas must lie in [0, 1], got range [{b.min()}, {b.max()}]")
        if np.any(np.diff(b) > 0):
            raise DomainError("betas must be non-increasing in t")

    @property
    def steps(self) -> int:
        return len(self.betas)

    def beta(self, t: int) -> float:
        if not 1 <= t <= self.steps:
            raise DomainError(f"timestep {t} outside 1..{self.steps}")
        return float(self.betas[t - 1])


def linear_schedule(*, steps: int, beta_end: float,
                    beta_start: float = BETA_START) -> NoiseSchedule:
    return NoiseSchedule(tuple(np.linspace(beta_start, beta_end, steps)))


@dataclass
class DenoiserParams(tc.ParamTree):
    """Two-layer conv net predicting the clean image from (noisy image, t)."""

    prefix = "denoiser"

    conv1: Tensor  # [hidden, C+1, 3, 3]; the extra input channel carries t
    b1: Tensor  # [hidden]
    conv2: Tensor  # [C, hidden, 3, 3]
    b2: Tensor  # [C]
    sched: NoiseSchedule  # the schedule it is trained on; t enters as t / sched.steps

    @property
    def channels(self) -> int:
        return self.conv2.data.shape[0]

    def forward(self, z: Tensor, t) -> Tensor:
        """Predictions [N,C,H,W] for N images [N,C,H,W] at timestep ``t``: one
        int, or one per item."""
        if z.data.ndim != 4 or z.data.shape[1] != self.channels:
            raise ShapeMismatchError(
                f"denoiser expects [N,{self.channels},H,W], got {z.data.shape}"
            )
        n, _, h, w = z.data.shape
        t_map = np.reshape(np.asarray(t) / self.sched.steps, (-1, 1, 1, 1))
        x = tc.concat([z, Tensor(np.broadcast_to(t_map, (n, 1, h, w)))], axis=1)
        (h1,) = tc.conv_items(x, [self.conv1], padding=1)
        (out,) = tc.conv_items(tc.relu(h1 + _chan(self.b1)), [self.conv2], padding=1)
        return out + _chan(self.b2)


def _chan(b: Tensor) -> Tensor:
    return tc.reshape(b, (-1, 1, 1))


def init_denoiser(channels: int, hidden: int, sched: NoiseSchedule, rng) -> DenoiserParams:
    """Seeded uniform init in [-s, s] with s = 1/sqrt(fan_in); zero biases."""
    k = 3
    s1 = 1.0 / math.sqrt((channels + 1) * k * k)
    s2 = 1.0 / math.sqrt(hidden * k * k)
    return DenoiserParams(
        conv1=tc.param(rng.uniform(-s1, s1, size=(hidden, channels + 1, k, k))),
        b1=tc.param(np.zeros(hidden)),
        conv2=tc.param(rng.uniform(-s2, s2, size=(channels, hidden, k, k))),
        b2=tc.param(np.zeros(channels)),
        sched=sched,
    )


def forward_diffuse(z0: np.ndarray, t: int, sched: NoiseSchedule, rng) -> np.ndarray:
    """Draw z_t = beta_t z_0 + sqrt(1 - beta_t) eps with eps standard normal."""
    beta = sched.beta(t)
    if beta == 1.0:
        return np.array(z0, dtype=np.float64, copy=True)
    return beta * z0 + math.sqrt(1.0 - beta) * rng.standard_normal(np.shape(z0))


def diffusion_loss(z0: np.ndarray, den, lam: float, rng) -> Tensor:
    """Denoiser training objective: per-step reconstruction MSE summed over the
    denoiser's whole schedule, plus ``lam`` times the trajectory penalty (the
    squared L2 gap between the recorded noisy target z_t and the prediction
    from the clean image) on a seeded random half of the timesteps.

    One denoiser pass over all terms' items: the reconstructions t = 1..steps,
    then the trajectory terms in ascending t.
    """
    if lam < 0:
        raise DomainError(f"lam must be >= 0, got {lam}")
    sched = den.sched
    steps = sched.steps
    ts = list(range(1, steps + 1))
    targets = np.stack([forward_diffuse(z0, t, sched, rng) for t in ts])
    if lam > 0:
        ts += sorted(int(t) for t in rng.choice(steps, size=math.ceil(steps / 2),
                                                replace=False) + 1)
    traj = np.array(ts[steps:], dtype=np.intp) - 1
    clean = np.broadcast_to(z0, (len(traj),) + np.shape(z0))
    out = den.forward(Tensor(np.concatenate([targets, clean])), ts)
    # one difference serves both terms: (z_t - pred)^2 == (pred - z_t)^2 exactly
    diff = out - Tensor(np.concatenate([np.broadcast_to(z0, targets.shape), targets[traj]]))
    sums = tc.tsum(tc.reshape(diff * diff, (len(ts), -1)), axis=1)
    return tc.sum_in_order([sums[:steps] / z0.size, lam * sums[steps:]])


def augment_pair(frames: np.ndarray, den, rng):
    """Two independent round trips through t = 1 of each of M frames
    [M,C,H,W]: views (v1, v2), each [M,C,H,W].

    A round trip, with beta_1 from the denoiser's schedule, noises a frame to
    z_1 = beta_1 z_0 + sqrt(1 - beta_1) eps and draws it back as
    mu(z_1, 1) + sigma eps', sigma = SIGMA_SCALE sqrt(1 - beta_1). Both noises
    come from one draw [M, 2, 2, C, H, W], laid out frame by frame and view by
    view, plane 0 the forward and plane 1 the reverse noise; at beta_1 = 1 both
    are zero and nothing is drawn. The reverse step is one denoiser pass over
    the 2M views.
    """
    frames = np.asarray(frames, dtype=np.float64)
    m, shape = frames.shape[0], frames.shape[1:]
    z = np.stack([frames, frames], axis=1)  # [M, 2, C, H, W]
    beta = den.sched.beta(1)
    if beta != 1.0:
        noise = rng.standard_normal((m, 2, 2) + shape)
        z = beta * z + math.sqrt(1.0 - beta) * noise[:, :, 0]
    with tc.no_grad():
        z = den.forward(Tensor(z.reshape((2 * m,) + shape)), 1).data.reshape((m, 2) + shape)
    if beta != 1.0:
        z = z + SIGMA_SCALE * math.sqrt(1.0 - beta) * noise[:, :, 1]
    return z[:, 0], z[:, 1]


def train_denoiser(frames, sched: NoiseSchedule, rng, *, epochs: int, lr: float = 0.001):
    """SGD on the diffusion objective over a list of [C,H,W] frames, with
    ``DENOISER_HIDDEN`` hidden channels and the trajectory penalty weighted
    by ``CONSISTENCY_WEIGHT``.

    Returns the trained denoiser and the per-epoch mean loss.
    """
    den = init_denoiser(frames[0].shape[0], DENOISER_HIDDEN, sched, rng)
    params = den.parameters()
    history = []
    for _ in range(epochs):
        epoch_loss = 0.0
        for (i,) in tc.minibatches(range(len(frames)), 1, rng):
            epoch_loss += tc.sgd_step(
                params, lambda: diffusion_loss(frames[i], den, CONSISTENCY_WEIGHT, rng),
                lr, "denoiser training",
            )
        history.append(epoch_loss / len(frames))
    return den, history
