"""Diffusion-style augmentation: forward noising, learned reverse steps, and
the training objective for the small convolutional denoiser.

The forward kernel is q(z_t | z_0) = N(beta_t * z_0, (1 - beta_t) I): the
mean coefficient is beta_t itself, so beta decreasing toward 0 walks the
image toward pure noise. The denoiser is a two-layer conv net conditioned on
t through an extra constant channel; the same network serves as the mean
predictor for reverse steps and as the trajectory generator whose output is
penalized for drifting away from the recorded noisy target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .errors import DomainError, ShapeMismatchError
from .tensor import Tensor


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


def linear_schedule(steps: int = 10, beta_start: float = 0.95, beta_end: float = 0.30) -> NoiseSchedule:
    return NoiseSchedule(tuple(np.linspace(beta_start, beta_end, steps)))


@dataclass
class DenoiserParams(tc.ParamTree):
    """Two-layer conv net predicting the clean image from (noisy image, t)."""

    prefix = "denoiser"

    conv1: Tensor  # [hidden, C+1, 3, 3]; the extra input channel carries t
    b1: Tensor  # [hidden]
    conv2: Tensor  # [C, hidden, 3, 3]
    b2: Tensor  # [C]
    steps: int  # schedule length; t enters as t / steps

    @property
    def channels(self) -> int:
        return self.conv2.data.shape[0]

    def forward(self, z: Tensor, t: int) -> Tensor:
        if z.data.ndim != 3 or z.data.shape[0] != self.channels:
            raise ShapeMismatchError(
                f"denoiser expects [{self.channels},H,W], got {z.data.shape}"
            )
        t_map = Tensor(np.full((1,) + z.data.shape[1:], t / self.steps))
        x = tc.concat([z, t_map], axis=0)
        h = tc.relu(tc.conv2d(x, self.conv1, padding=1) + tc.reshape(self.b1, (-1, 1, 1)))
        return tc.conv2d(h, self.conv2, padding=1) + tc.reshape(self.b2, (-1, 1, 1))


def init_denoiser(channels: int, hidden: int, steps: int, rng) -> DenoiserParams:
    """Seeded uniform init in [-s, s] with s = 1/sqrt(fan_in); zero biases."""
    k = 3
    s1 = 1.0 / math.sqrt((channels + 1) * k * k)
    s2 = 1.0 / math.sqrt(hidden * k * k)
    return DenoiserParams(
        conv1=tc.param(rng.uniform(-s1, s1, size=(hidden, channels + 1, k, k))),
        b1=tc.param(np.zeros(hidden)),
        conv2=tc.param(rng.uniform(-s2, s2, size=(channels, hidden, k, k))),
        b2=tc.param(np.zeros(channels)),
        steps=steps,
    )


def forward_diffuse(z0: np.ndarray, t: int, sched: NoiseSchedule, rng) -> np.ndarray:
    """Draw z_t = beta_t z_0 + sqrt(1 - beta_t) eps with eps standard normal."""
    beta = sched.beta(t)
    if beta == 1.0:
        return np.array(z0, dtype=np.float64, copy=True)
    return beta * z0 + math.sqrt(1.0 - beta) * rng.standard_normal(np.shape(z0))


def reverse_step(z_t: np.ndarray, t: int, den, sigma_t: float, rng) -> np.ndarray:
    """One reverse draw z_{t-1} = mu(z_t, t) + sigma_t eps."""
    if t < 1:
        raise DomainError(f"reverse step needs t >= 1, got {t}")
    if sigma_t < 0:
        raise DomainError(f"sigma_t must be >= 0, got {sigma_t}")
    with tc.no_grad():
        mu = den.forward(Tensor(z_t), t).data
    if sigma_t == 0.0:
        return mu
    return mu + sigma_t * rng.standard_normal(mu.shape)


def trajectory_consistency(z0: np.ndarray, t: int, den, sched: NoiseSchedule, rng,
                           z_t: np.ndarray | None = None) -> Tensor:
    """Squared L2 gap between the recorded noisy target z_t and the generator's
    prediction from the clean image; z_t is drawn from ``rng`` unless given."""
    if z_t is None:
        z_t = forward_diffuse(z0, t, sched, rng)
    pred = den.forward(Tensor(z0), t)
    diff = Tensor(z_t) - pred
    return (diff * diff).sum()


def diffusion_loss(z0: np.ndarray, den, sched: NoiseSchedule, lam: float, rng) -> Tensor:
    """Denoiser training objective: per-step reconstruction MSE summed over the
    whole schedule, plus ``lam`` times the trajectory penalty evaluated on a
    seeded random half of the timesteps."""
    if lam < 0:
        raise DomainError(f"lam must be >= 0, got {lam}")
    targets = {t: forward_diffuse(z0, t, sched, rng) for t in range(1, sched.steps + 1)}
    z0_t = Tensor(z0)
    total = Tensor(0.0)
    for t in range(1, sched.steps + 1):
        recon = den.forward(Tensor(targets[t]), t)
        diff = recon - z0_t
        total = total + (diff * diff).mean()
    if lam > 0:
        subset = rng.choice(sched.steps, size=math.ceil(sched.steps / 2), replace=False) + 1
        for t in sorted(int(t) for t in subset):
            total = total + lam * trajectory_consistency(z0, t, den, sched, rng, z_t=targets[t])
    return total


def augment_pair(frame: np.ndarray, den, sched: NoiseSchedule, depth: int, rng,
                 sigma_scale: float = 0.1):
    """Two independent forward-then-reverse round trips of the same frame."""
    if depth > sched.steps or depth < 0:
        raise DomainError(f"depth {depth} outside 0..{sched.steps}")

    def round_trip():
        if depth == 0:
            return np.array(frame, copy=True)
        z = forward_diffuse(frame, depth, sched, rng)
        for t in range(depth, 0, -1):
            sigma = sigma_scale * math.sqrt(1.0 - sched.beta(t))
            z = reverse_step(z, t, den, sigma, rng)
        return z

    return round_trip(), round_trip()


def train_denoiser(frames, channels: int, sched: NoiseSchedule, rng, epochs: int = 10,
                   lr: float = 0.001, lam: float = 0.1, hidden: int = 8):
    """SGD on the diffusion objective over a list of [C,H,W] frames.

    Returns the trained denoiser and the per-epoch mean loss.
    """
    den = init_denoiser(channels, hidden, sched.steps, rng)
    params = den.parameters()
    history = []
    for _ in range(epochs):
        epoch_loss = 0.0
        for (i,) in tc.minibatches(range(len(frames)), 1, rng):
            epoch_loss += tc.sgd_step(
                params, lambda: diffusion_loss(frames[i], den, sched, lam, rng), lr,
                "denoiser training",
            )
        history.append(epoch_loss / len(frames))
    return den, history
