"""Run configuration: the settable values of a run in one flat dataclass.

The method's fixed hyperparameters are not among them: they are module
constants of the modules that use them (``attention.SE_REDUCTION``,
``diffusion.BETA_START``, ``diffusion.DENOISER_LR``, ``contrastive.TAU``,
``contrastive.EMBED_DIM``, ``eo.PROBE_RIDGE``, ``eo.SPARSITY_WEIGHT``, ...),
and no function takes one as a parameter.

Configs live on disk as flat ``key=value`` text. Unknown keys are rejected
rather than ignored, and the fully resolved config (defaults + file +
command-line overrides) is snapshotted verbatim into each run directory so
a run can be reproduced from the snapshot and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass, fields
from pathlib import Path

from .attention import ATTENTION_MODES, CONV_MODES, SE_REDUCTION, check_modes
from .diffusion import BETA_START
from .eo import FEATURE_SELECTORS
from .errors import ConfigError
from .fileio import kv_text, parse_kv


# n_plots: the 80-10-10 split needs 10; t_steps, height, width: synth's floor
# (synthdata); batch_size: every anchor needs a negative; pretrain_lr: a
# negative rate climbs the loss
_LOWER_BOUNDS = {"n_plots": 10, "t_steps": 2, "height": 8, "width": 8, "batch_size": 2,
                 "denoiser_epochs": 0, "pretrain_epochs": 0, "eo_iters": 1, "diff_steps": 1,
                 "hidden_channels": 1, "shuffle_groups": 1, "pretrain_lr": 0.0}


@dataclass
class RunConfig:
    seed: int = 0
    # synthetic data
    source: str = "S2"
    n_plots: int = 60
    t_steps: int = 6
    height: int = 10
    width: int = 10
    preprocess: str = "laplacian"  # laplacian | none
    # diffusion augmentation
    diff_steps: int = 10
    beta_end: float = 0.30
    denoiser_epochs: int = 8
    # encoder
    hidden_channels: int = 8
    shuffle_groups: int = 2
    attention_mode: str = ATTENTION_MODES[0]
    conv_mode: str = CONV_MODES[0]
    # contrastive pre-training
    pretrain_epochs: int = 20
    pretrain_lr: float = 0.01
    batch_size: int = 8
    # feature selection
    feature_selector: str = "eo"  # eo | none
    eo_iters: int = 100
    # Not config keys: the train stage is one closed-form head fit, and nothing
    # reads these. The benchmark's schedules (perfbench/workloads.py) still
    # pass them to dataclasses.replace, so the constructor takes and drops
    # them until the next change to that benchmark (ROADMAP).
    train_epochs: InitVar[int] = 600
    finetune_encoder: InitVar[bool] = True
    finetune_epochs: InitVar[int] = 100
    patience: InitVar[int] = 8

    def validate(self) -> "RunConfig":
        if self.source not in ("S1", "S2", "L8"):
            raise ConfigError(f"source must be S1, S2 or L8, got {self.source!r}")
        if self.preprocess not in ("laplacian", "none"):
            raise ConfigError(f"preprocess must be laplacian or none, got {self.preprocess!r}")
        check_modes(self.attention_mode, self.conv_mode)
        if self.feature_selector not in FEATURE_SELECTORS:
            raise ConfigError(f"unknown feature_selector {self.feature_selector!r}")
        for key, kind in _FIELDS.items():
            if kind == "float" and not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        for key, low in _LOWER_BOUNDS.items():
            if not getattr(self, key) >= low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if not 0 <= self.beta_end <= BETA_START:
            raise ConfigError(
                f"need 0 <= beta_end <= beta_start = {BETA_START}, got beta_end={self.beta_end}"
            )
        if self.hidden_channels % SE_REDUCTION or self.hidden_channels % self.shuffle_groups:
            raise ConfigError(
                f"the SE reduction {SE_REDUCTION} and shuffle_groups must divide hidden_channels"
            )
        return self


_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw):
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    if not isinstance(raw, str):
        return raw
    kind = _FIELDS[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"bad {kind} for {key}: {raw!r}") from None
    return raw


def parse_overrides(text: str) -> dict:
    """``key=value`` lines (``fileio.parse_kv``) -> typed dict; unknown keys rejected."""
    try:
        values = parse_kv(text)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return {key: _coerce(key, value) for key, value in values.items()}


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then explicit overrides; validated."""
    values = parse_overrides(Path(path).read_text()) if path is not None else {}
    values.update({key: _coerce(key, value) for key, value in (overrides or {}).items()})
    return RunConfig(**values).validate()


def config_text(cfg: RunConfig) -> str:
    return kv_text(asdict(cfg))
