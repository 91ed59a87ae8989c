"""Synthetic multi-spectral plot time series, Laplacian sharpening, splits, IO.

The generator is a stand-in for a real satellite archive: every plot gets a
latent fertility level and a growth trajectory, band reflectances respond
smoothly to both, and yield is affine in fertility plus the measured
late-season response of a vegetation-sensitive band. The learnable signal is
therefore present by construction, and the same seed always reproduces the
same dataset byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, MalformedHeaderError
from .fileio import ContainerReader, positive_int, rng_for, write_container

DATASET_MAGIC = "MTMSDS"

_BANDS = {
    "S1": ["VV", "VH"],
    "S2": ["B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B8A", "B9", "B11", "B12"],
    "L8": ["SR_B1", "SR_B2", "SR_B3", "SR_B4", "SR_B5", "SR_B6", "SR_B7", "ST_B10"],
}

# band most responsive to canopy growth, per source (VH, B8 = NIR, SR_B5 = NIR)
_VEG_BAND = {"S1": 1, "S2": 7, "L8": 4}

_SEASONS = ["oct_mar", "sep_feb", "may_sep"]

YIELD_SCALE = 2400.0  # yield per unit of the fertility-and-response signal
YIELD_NOISE = 0.05  # relative spread of a plot's yield around its signal


@dataclass(frozen=True)
class BandSpec:
    source: str

    def __post_init__(self):
        if self.source not in _BANDS:
            raise DomainError(f"unknown source {self.source!r}, expected one of {sorted(_BANDS)}")

    @property
    def band_names(self) -> list[str]:
        return list(_BANDS[self.source])

    @property
    def channels(self) -> int:
        return len(_BANDS[self.source])

    @property
    def veg_band(self) -> int:
        return _VEG_BAND[self.source]


@dataclass
class PlotSample:
    plot_id: int
    season_tag: str
    x: np.ndarray | None  # [T, H, W, C] in [0, 1]; run_pipeline drops it once framed
    y: float  # scalar yield, > 0

    def __post_init__(self):
        if not 0.0 < self.y < math.inf:
            raise DomainError(f"plot {self.plot_id}: yield {self.y} is not positive and finite")
        if self.x.ndim != 4 or self.x.shape[0] < 2:
            raise DomainError(
                f"plot {self.plot_id}: x must be [T>=2,H,W,C], got shape {self.x.shape}"
            )
        if not np.isfinite(self.x).all():
            raise DomainError(f"plot {self.plot_id}: x holds a non-finite value")


@dataclass
class Split:
    train: list[int]
    val: list[int]
    test: list[int]


@dataclass
class Dataset:
    band_spec: BandSpec
    samples: list[PlotSample]
    split: Split | None = field(default=None)

    @property
    def dims(self):
        t, h, w, c = self.samples[0].x.shape
        return t, h, w, c


def _growth_curve(t_steps: int, midpoint: float, steep: float) -> np.ndarray:
    stage = (np.arange(t_steps) + 0.5) / t_steps
    return 1.0 / (1.0 + np.exp(-steep * (stage - midpoint)))


def _smooth_field(h: int, w: int, rng) -> np.ndarray:
    """Low-frequency random texture in roughly [-1, 1], unique per plot."""
    yy = np.linspace(0.0, 1.0, h)[:, None]
    xx = np.linspace(0.0, 1.0, w)[None, :]
    out = np.zeros((h, w))
    for _ in range(3):
        fy, fx = rng.uniform(0.5, 2.0, size=2)
        py, px = rng.uniform(0.0, 1.0, size=2)
        out += rng.uniform(0.3, 1.0) * np.sin(2 * math.pi * (fy * yy + py)) * np.sin(
            2 * math.pi * (fx * xx + px)
        )
    return out / 3.0


def generate_dataset(spec: BandSpec, n_plots: int, t_steps: int, height: int, width: int,
                     seed: int) -> Dataset:
    """Deterministic synthetic dataset with a recoverable fertility-to-yield signal."""
    if n_plots < 10:
        raise DomainError(f"need at least 10 plots, got {n_plots}")
    if t_steps < 2:
        raise DomainError(f"need at least 2 time steps, got {t_steps}")
    if height < 8 or width < 8:
        raise DomainError(f"spatial dims must be >= 8, got {height}x{width}")

    rng = rng_for(seed, f"synth-{spec.source}")
    c = spec.channels
    band_idx = np.arange(c)
    band_base = 0.35 + 0.12 * np.cos(1.7 * band_idx)  # per-band resting level
    veg_affinity = 0.25 + 0.75 * np.exp(-0.5 * ((band_idx - spec.veg_band) / 1.5) ** 2)
    late = max(1, math.ceil(t_steps / 3))

    samples = []
    for plot_id in range(n_plots):
        fertility = rng.uniform(0.2, 0.8)
        growth = _growth_curve(t_steps, midpoint=rng.uniform(0.3, 0.6), steep=rng.uniform(6.0, 10.0))
        texture = _smooth_field(height, width, rng)
        # per-plot spectral signature (soil/variety): a band-level offset that
        # survives spatial pooling, so plots stay identifiable downstream.
        # Projected orthogonal to the vegetation-affinity direction so it
        # does not mask the fertility signal that drives yield.
        raw_sig = rng.uniform(-0.4, 0.4, size=c)
        signature = raw_sig - (raw_sig @ veg_affinity) / (veg_affinity @ veg_affinity) * veg_affinity
        noise = rng.normal(0.0, 0.02, size=(t_steps, height, width, c))

        signal = 0.45 * fertility * growth[:, None, None, None] * veg_affinity[None, None, None, :]
        x = (band_base + signature)[None, None, None, :] + signal \
            + 0.06 * texture[None, :, :, None] + noise
        x = np.clip(x, 0.0, 1.0)

        veg_response = float(x[-late:, :, :, spec.veg_band].mean())
        eta = float(np.clip(rng.normal(0.0, 1.0), -3.0, 3.0))
        y = YIELD_SCALE * (0.25 + 0.7 * fertility + 1.1 * veg_response) * (1.0 + YIELD_NOISE * eta)
        samples.append(
            PlotSample(
                plot_id=plot_id,
                season_tag=_SEASONS[plot_id % len(_SEASONS)],
                x=x,
                y=float(y),
            )
        )
    return Dataset(band_spec=spec, samples=samples)


# -- preprocessing ----------------------------------------------------------------


def enhance_sample(x: np.ndarray) -> np.ndarray:
    """Edge-emphasizing sharpening of a [T,H,W,C] cube, per band and time step:
    each image plus its 4-neighbor Laplacian response.

    Zero padding at the border; linear in the input.
    """
    p = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    lap = 4.0 * p[:, 1:-1, 1:-1] - p[:, :-2, 1:-1] - p[:, 2:, 1:-1] - p[:, 1:-1, :-2] - p[:, 1:-1, 2:]
    return x + lap


# -- splits -------------------------------------------------------------------------


def split_dataset(ds: Dataset, seed: int) -> Dataset:
    """80-10-10 split: floor(0.8n) train, floor(0.1n) val, remainder test."""
    n = len(ds.samples)
    if n < 10:
        raise DomainError(f"need at least 10 samples to split, got {n}")
    perm = rng_for(seed, "split").permutation(n)
    n_train = (8 * n) // 10
    n_val = n // 10
    split = Split(
        train=[int(i) for i in perm[:n_train]],
        val=[int(i) for i in perm[n_train:n_train + n_val]],
        test=[int(i) for i in perm[n_train + n_val:]],
    )
    return replace(ds, split=split)


# -- file format --------------------------------------------------------------------


def save_dataset(ds: Dataset, path) -> None:
    t, h, w, c = ds.dims
    write_container(path, [
        f"{DATASET_MAGIC} v1 {ds.band_spec.source} {len(ds.samples)} {t} {h} {w} {c}",
        ",".join(ds.band_spec.band_names),
    ], ((f"{s.plot_id} {s.season_tag} {s.y!r}", s.x) for s in ds.samples))


def load_dataset(path) -> Dataset:
    with ContainerReader(path, "dataset") as rd:
        magic, version, source, n, *shape = rd.fields(
            "header", (str, str, str) + (positive_int,) * 5, checksum=False)
        if (magic, version) != (DATASET_MAGIC, "v1") or source not in _BANDS:
            raise MalformedHeaderError(f"bad dataset header: {magic} {version} {source}")
        spec = BandSpec(source)
        (bands,) = rd.fields("band name line", (str,), checksum=False)
        if bands.split(",") != spec.band_names or shape[3] != spec.channels:
            raise MalformedHeaderError(f"bands {bands!r} do not match {source} with C={shape[3]}")
        samples = []
        for _ in range(n):
            plot_id, tag, y = rd.fields("sample metadata", (int, str, float))
            samples.append(PlotSample(plot_id, tag, rd.payload(tuple(shape), f"plot {plot_id}"), y))
    return Dataset(band_spec=spec, samples=samples)
