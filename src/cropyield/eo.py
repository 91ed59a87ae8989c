"""Equilibrium-optimizer feature selection over pooled encoder features.

Particles live in [0,1]^dim and are thresholded at 0.5 into binary masks for
fitness evaluation. The four best particles form the equilibrium pool whose
coordinatewise mean is the global attractor; each particle then moves by a
random multiple of its offset from the attractor plus a momentum-like
generation term, and is clamped back into the unit box.

The exploration term applies a fresh random sign per coordinate. With the
sign always positive the attractor is purely repulsive: every coordinate
races monotonically to a wall, the population freezes on whatever corners
the first few iterations happened to visit, and the search cannot recover a
planted mask. The signed form keeps the same arithmetic (step sizes
proportional to the attractor offset) while turning the dynamics into a
contraction-with-excursions around the pool consensus, which is what makes
the optimizer actually converge. See scripts/eo_dynamics_study.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .fileio import rng_for

FEATURE_SELECTORS = ("eo", "none")


@dataclass(frozen=True)
class EoConfig:
    n_particles: int = 20
    max_iter: int = 100
    alpha: float = 0.5
    lam: float = 1.0
    seed: int = 0
    signed_exploration: bool = True

    def __post_init__(self):
        if self.n_particles < 4:
            raise DomainError(
                f"equilibrium pool needs >= 4 particles, got {self.n_particles}"
            )


@dataclass
class Particle:
    position: np.ndarray  # in [0,1]^dim
    fitness: float = math.inf
    prev_position: np.ndarray | None = None


@dataclass
class EoState:
    particles: list
    config: EoConfig
    pool: list = field(default_factory=list)  # indices of the 4 best, fitness-ascending
    p_avg: np.ndarray | None = None
    iteration: int = 0


def binarize(position: np.ndarray) -> np.ndarray:
    return position >= 0.5


def initialize(dim: int, config: EoConfig, rng) -> EoState:
    """Particles seeded uniform in [0,1]^dim: base position 0 plus a random
    adjustment in the all-ones direction."""
    if dim < 1:
        raise DomainError(f"dim must be >= 1, got {dim}")
    particles = [Particle(position=rng.random(dim)) for _ in range(config.n_particles)]
    return EoState(particles=particles, config=config)


def evaluate_fitness(particle: Particle, fitness_fn, binarize_position: bool = True) -> float:
    """Fitness of the thresholded mask; an empty mask draws an infinite penalty."""
    if binarize_position:
        mask = binarize(particle.position)
        if not mask.any():
            return math.inf
        return float(fitness_fn(mask))
    return float(fitness_fn(particle.position))


def update_pool(state: EoState) -> EoState:
    """Keep the 4 lowest-fitness particles (ties broken by index) and their mean."""
    order = sorted(range(len(state.particles)), key=lambda i: (state.particles[i].fitness, i))
    state.pool = order[:4]
    state.p_avg = np.mean([state.particles[i].position for i in state.pool], axis=0)
    return state


def position_update(position: np.ndarray, prev_position, p_avg: np.ndarray,
                    delta: float, signs, alpha: float, lam: float) -> np.ndarray:
    """One particle move: position + signs*delta*(position - p_avg) + G*lam,
    with G = (position - prev_position)*alpha, clamped to [0,1]."""
    if prev_position is None:
        g = 0.0
    else:
        g = (position - prev_position) * alpha
    return np.clip(position + signs * delta * (position - p_avg) + g * lam, 0.0, 1.0)


def step(state: EoState, fitness_fn, rng, binarize_position: bool = True) -> EoState:
    """Move every particle, re-evaluate fitness, refresh the pool."""
    if state.p_avg is None:
        raise DomainError("pool not populated; call update_pool after initial evaluation")
    cfg = state.config
    for particle in state.particles:
        delta = rng.random()
        if cfg.signed_exploration:
            signs = np.where(rng.random(particle.position.shape) < 0.5, -1.0, 1.0)
        else:
            signs = 1.0
        new_pos = position_update(
            particle.position, particle.prev_position, state.p_avg,
            delta, signs, cfg.alpha, cfg.lam,
        )
        particle.prev_position = particle.position
        particle.position = new_pos
        particle.fitness = evaluate_fitness(particle, fitness_fn, binarize_position)
    state.iteration += 1
    return update_pool(state)


@dataclass
class EoResult:
    best_mask: np.ndarray
    best_fitness: float
    history: list  # best-ever fitness after each iteration (including iteration 0)


def run_eo(dim: int, fitness_fn, config: EoConfig,
           binarize_position: bool = True) -> EoResult:
    """Full optimization loop; returns the best mask ever seen and its fitness.

    ``fitness_fn`` must be deterministic: each distinct mask is scored once.
    """
    scores = {}

    def fitness_once(x: np.ndarray) -> float:
        key = x.tobytes()
        if key not in scores:
            scores[key] = fitness_fn(x)
        return scores[key]

    rng = rng_for(config.seed, "eo")
    state = initialize(dim, config, rng)
    for particle in state.particles:
        particle.fitness = evaluate_fitness(particle, fitness_once, binarize_position)
    update_pool(state)

    def snapshot(p: Particle):
        return binarize(p.position) if binarize_position else p.position.copy()

    best_idx = state.pool[0]
    best_fitness = state.particles[best_idx].fitness
    best_mask = snapshot(state.particles[best_idx])
    history = [best_fitness]
    for _ in range(config.max_iter):
        step(state, fitness_once, rng, binarize_position)
        cand = state.particles[state.pool[0]]
        if cand.fitness < best_fitness:
            best_fitness = cand.fitness
            best_mask = snapshot(cand)
        history.append(best_fitness)
    return EoResult(best_mask=best_mask, best_fitness=best_fitness, history=history)


def make_probe_fitness(features: np.ndarray, y: np.ndarray, train_idx, val_idx,
                       ridge: float = 1e-2, sparsity_weight: float = 0.01):
    """Fitness for pipeline feature selection: validation MSE of a ridge probe
    on the masked features plus a small mask-density penalty."""
    features = np.asarray(features, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    tr = np.asarray(train_idx, dtype=np.intp)
    va = np.asarray(val_idx, dtype=np.intp)

    def fitness(mask: np.ndarray) -> float:
        cols = np.flatnonzero(mask)
        x_tr = np.column_stack([features[tr][:, cols], np.ones(len(tr))])
        x_va = np.column_stack([features[va][:, cols], np.ones(len(va))])
        reg = ridge * np.eye(x_tr.shape[1])
        reg[-1, -1] = 0.0  # intercept unpenalized
        w = np.linalg.solve(x_tr.T @ x_tr + reg, x_tr.T @ y[tr])
        val_mse = float(np.mean((x_va @ w - y[va]) ** 2))
        return val_mse + sparsity_weight * float(mask.mean())

    return fitness
