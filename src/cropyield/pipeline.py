"""Stage orchestration and run-directory management.

A run directory is the unit of reproducibility: it receives a verbatim
config snapshot, per-stage artifacts, and the final evaluation report, and
never writes outside itself. Stages run in the fixed order

    pretrain -> select -> train -> evaluate

A full invocation executes all four. Invoking a single stage resumes from
the artifacts earlier stages left behind; a missing upstream artifact is an
explicit error rather than a silent recompute, and a resume under a config
or from a dataset that differs from the directory's snapshot (``config.txt``,
``data.txt``) is refused, so resumed runs stay attributable to both.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path

import numpy as np

from . import attention as at
from . import contrastive as ct
from . import convlstm as cl
from . import diffusion as df
from . import eo
from . import evalmetrics as em
from . import predictor as pr
from . import synthdata as sd
from . import tensor as tc
from .config import RunConfig, config_text
from .errors import (ConfigError, DataFormatError, DomainError, NumericalError,
                     StagePrerequisiteError)
from .fileio import container_trailer, load_checkpoint, rng_for, save_checkpoint

STAGES = ("pretrain", "select", "train", "evaluate")

_ARTIFACTS = {
    "pretrain": ("pretrain.ckpt", "pretrain_loss.txt", "pretrain_stats.kv"),
    "select": ("mask.txt", "eo_history.txt"),
    "train": ("model.ckpt", "train_curve.txt"),
    "evaluate": ("report.txt", "report.kv"),
}


def stage_artifacts(run_dir: Path, stage: str):
    return [Path(run_dir) / name for name in _ARTIFACTS[stage]]


def _require_stage(run_dir: Path, stage: str):
    missing = [p.name for p in stage_artifacts(run_dir, stage) if not p.exists()]
    if missing:
        raise StagePrerequisiteError(
            f"stage prerequisite missing: {stage!r} artifacts {missing} not found in {run_dir}"
        )


def prepare_frames(ds: sd.Dataset, cfg: RunConfig):
    """Preprocess and reorder each sample cube to [T, C, H, W]."""
    frames = []
    for s in ds.samples:
        x = sd.enhance_sample(s.x) if cfg.preprocess == "laplacian" else s.x
        frames.append(np.ascontiguousarray(x.transpose(0, 3, 1, 2)))
    return frames


def _load_split_dataset(data_path, cfg: RunConfig) -> sd.Dataset:
    ds = sd.load_dataset(data_path)
    t_steps = ds.dims[0]
    if t_steps < at.HISTORY + 1:
        raise ConfigError(
            f"dataset has T={t_steps} time steps, too few for history={at.HISTORY} "
            f"(need history+1)"
        )
    return sd.split_dataset(ds, cfg.seed)


def _load_encoder(named: dict, cfg: RunConfig):
    return (cl.ConvLstmParams.from_named(named),
            at.SsaParams.from_named(named, groups=cfg.shuffle_groups,
                                    attention_mode=cfg.attention_mode,
                                    conv_mode=cfg.conv_mode))


# -- stages ------------------------------------------------------------------------


def run_stage_pretrain(run_dir: Path, ds: sd.Dataset, frames, cfg: RunConfig) -> None:
    sched = df.linear_schedule(steps=cfg.diff_steps, beta_end=cfg.beta_end)
    den_frames = [frames[i][t] for i in ds.split.train for t in range(0, len(frames[0]), 2)]
    den, den_history = df.train_denoiser(den_frames, sched, rng_for(cfg.seed, "denoiser"),
                                         epochs=cfg.denoiser_epochs)
    result = ct.pretrain_encoder(
        frames, ds.split.train, ds.split.val, den, rng_for(cfg.seed, "pretrain"),
        epochs=cfg.pretrain_epochs, lr=cfg.pretrain_lr, batch_size=cfg.batch_size,
        hidden_channels=cfg.hidden_channels, shuffle_groups=cfg.shuffle_groups,
        attention_mode=cfg.attention_mode, conv_mode=cfg.conv_mode,
    )
    named = {**den.named(), **result.lstm.named(), **result.ssa.named(),
             "projection": result.projection.data}
    # a last update can overflow after its loss was taken: write no NaN
    written = {"denoiser loss history": den_history,
               "contrastive loss history": result.loss_history,
               **{f"statistic {key}": value for key, value in result.stats.items()}, **named}
    bad = [what for what, values in written.items() if not np.isfinite(values).all()]
    if bad:
        raise NumericalError(f"pretrain stage: non-finite values in {len(bad)} of its outputs, "
                             f"first {bad[0]}")
    save_checkpoint(run_dir / "pretrain.ckpt", named)
    with open(run_dir / "pretrain_loss.txt", "w") as fh:
        fh.write("epoch,contrastive_loss\n")
        for epoch, loss in enumerate(result.loss_history):
            fh.write(f"{epoch},{loss!r}\n")
        fh.write("# denoiser per-epoch loss: " + " ".join(repr(v) for v in den_history) + "\n")
    with open(run_dir / "pretrain_stats.kv", "w") as fh:
        for key in sorted(result.stats):
            fh.write(f"{key}={result.stats[key]!r}\n")


def run_stage_select(run_dir: Path, ds: sd.Dataset, frames, cfg: RunConfig) -> None:
    _require_stage(run_dir, "pretrain")
    lstm, ssa = _load_encoder(load_checkpoint(run_dir / "pretrain.ckpt"), cfg)
    rows = ds.split.train + ds.split.val  # the probe reads no test plot
    feats = ct.encode_chunks([frames[i] for i in rows], lstm, ssa, cfg.batch_size)
    feats = feats.mean(axis=(2, 3))
    y = np.array([s.y for s in ds.samples])
    y_std = (y - y[ds.split.train].mean()) / (y[ds.split.train].std() or 1.0)
    n = len(ds.split.train)
    fitness = eo.make_probe_fitness(feats, y_std[rows], range(n), range(n, len(rows)))
    dim = feats.shape[1]
    if cfg.feature_selector == "eo":
        result = eo.run_eo(dim, fitness, max_iter=cfg.eo_iters, seed=cfg.seed)
        mask, best, history = result.best_mask, result.best_fitness, result.history
    else:  # "none": keep every channel
        mask = np.ones(dim, dtype=bool)
        best = fitness(mask)
        history = [best]
    with open(run_dir / "mask.txt", "w") as fh:
        fh.write("".join("1" if b else "0" for b in mask) + "\n")
        fh.write(f"{best!r}\n")
    with open(run_dir / "eo_history.txt", "w") as fh:
        fh.write("iteration,best_fitness\n")
        for i, v in enumerate(history):
            fh.write(f"{i},{v!r}\n")


def load_mask(run_dir: Path, dim: int) -> tuple[np.ndarray, float]:
    """The select stage's mask over the ``dim`` encoder features and its fitness."""
    path = Path(run_dir) / "mask.txt"
    lines = path.read_text(errors="replace").splitlines() + ["", ""]
    bits = lines[0].strip()
    if len(bits) != dim or set(bits) - {"0", "1"}:
        raise DataFormatError(f"{path}: line 1 must be {dim} characters 0/1, got {bits[:40]!r}")
    try:
        fitness = float(lines[1])
    except ValueError:
        fitness = math.nan
    if not math.isfinite(fitness):
        raise DataFormatError(f"{path}: line 2 must be a finite fitness, got {lines[1][:40]!r}")
    return np.array([c == "1" for c in bits]), fitness


def run_stage_train(run_dir: Path, ds: sd.Dataset, frames, cfg: RunConfig) -> None:
    _require_stage(run_dir, "pretrain")
    _require_stage(run_dir, "select")
    lstm, ssa = _load_encoder(load_checkpoint(run_dir / "pretrain.ckpt"), cfg)
    mask, _ = load_mask(run_dir, 2 * cfg.hidden_channels)
    y = np.array([s.y for s in ds.samples])
    result = pr.fit_head(frames, lstm, ssa, mask, y, ds.split.train, ds.split.val,
                         pretrain_batch=cfg.batch_size)
    named = {**lstm.named(), **ssa.named(), **result.head.named(),
             "norm/y_mean": np.array(result.y_mean), "norm/y_std": np.array(result.y_std),
             "mask": mask.astype(np.float64)}
    save_checkpoint(run_dir / "model.ckpt", named)
    with open(run_dir / "train_curve.txt", "w") as fh:
        fh.write("epoch,train_mse,val_mse\n")
        for epoch, tr, va in result.curve:
            fh.write(f"{epoch},{tr!r},{va!r}\n")
        fh.write(f"# ridge_lambda={result.ridge_lambda!r}\n")


class YieldModel:
    """Frozen end-to-end predictor reconstructed from a run's model checkpoint."""

    def __init__(self, lstm, ssa, head, mask, y_mean, y_std):
        self.lstm, self.ssa, self.head = lstm, ssa, head
        self.sel = np.flatnonzero(mask)
        self.y_mean, self.y_std = y_mean, y_std

    @classmethod
    def load(cls, run_dir: Path, cfg: RunConfig) -> "YieldModel":
        named = load_checkpoint(Path(run_dir) / "model.ckpt")
        lstm, ssa = _load_encoder(named, cfg)
        return cls(
            lstm=lstm, ssa=ssa, head=pr.HeadParams.from_named(named),
            mask=named["mask"] > 0.5, y_mean=float(named["norm/y_mean"]),
            y_std=float(named["norm/y_std"]),
        )

    def predict_frames(self, frames_tchw) -> float:
        with tc.no_grad():
            fused = ct.encode_features(np.asarray(frames_tchw)[None], self.lstm, self.ssa)
            _, preds = pr.predict_yield(tc.take_channels(fused, self.sel), self.head)
        return self.y_mean + self.y_std * float(preds.data[0])


def run_stage_evaluate(run_dir: Path, ds: sd.Dataset, frames, cfg: RunConfig) -> None:
    _require_stage(run_dir, "train")
    model = YieldModel.load(run_dir, cfg)
    test = ds.split.test
    # the baseline predicts the train-split mean yield, which fit_head stored
    report = em.evaluate([ds.samples[i] for i in test],
                         [model.predict_frames(frames[i]) for i in test],
                         baseline_constant=model.y_mean)
    em.write_report_table(report, run_dir / "report.txt")
    em.write_report_kv(report, run_dir / "report.kv")


_RUNNERS = {
    "pretrain": run_stage_pretrain,
    "select": run_stage_select,
    "train": run_stage_train,
    "evaluate": run_stage_evaluate,
}


def _data_text(data_path, ds: sd.Dataset) -> str:
    """What binds a run directory to its dataset: source, plot count, dims
    and the container's checksum trailer, one ``key=value`` line each."""
    t, h, w, c = ds.dims
    return (f"source={ds.band_spec.source}\nplots={len(ds.samples)}\n"
            f"dims={t} {h} {w} {c}\ntrailer={container_trailer(data_path):016x}\n")


def _refuse_other(path: Path, text: str, action: str, what: str) -> None:
    """Refuse to ``action`` a run directory whose ``path`` records other lines than ``text``."""
    if not path.exists():
        return
    diff = set(path.read_text().splitlines()) ^ set(text.splitlines())
    if diff:
        keys = sorted({line.split("=", 1)[0] for line in diff})
        raise ConfigError(
            f"cannot {action} in {path.parent}: its {path.name} differs in "
            f"{', '.join(keys)}; use the same {what} or a new run directory"
        )


def run_pipeline(cfg: RunConfig, data_path, out_dir, stage: str | None = None) -> Path:
    """Execute the full pipeline, or exactly one stage resuming from artifacts.

    A resume is refused, before anything is written, when the run directory
    was made under another config or from another dataset.
    """
    if stage is not None and stage not in STAGES:
        raise DomainError(f"unknown stage {stage!r}, expected one of {STAGES}")
    run_dir = Path(out_dir)
    snapshot, binding = run_dir / "config.txt", run_dir / "data.txt"
    text = config_text(cfg)
    if stage is not None:
        _refuse_other(snapshot, text, f"resume stage {stage!r}", "config")
    ds = _load_split_dataset(data_path, cfg)
    bound = _data_text(data_path, ds)
    if stage is not None:
        _refuse_other(binding, bound, f"resume stage {stage!r}", "dataset")
    run_dir.mkdir(parents=True, exist_ok=True)  # only once the data has loaded and a resume fits
    snapshot.write_text(text)
    binding.write_text(bound)
    frames = prepare_frames(ds, cfg)
    for s in ds.samples:  # the stages read the frames, not the cubes they were copied from
        s.x = None
    todo = STAGES if stage is None else (stage,)
    for name in todo:
        _RUNNERS[name](run_dir, ds, frames, cfg)
    return run_dir


# -- report merging and ablation sweeps ---------------------------------------------


def merge_reports(run_dirs, percent: bool = False):
    """Collect per-run metrics and a mean-baseline row, sorted by MAPE, lowest first.

    Returns (rows, skipped) where each row is (name, mape, rmsle, smape).
    Malformed report files are skipped, not fatal.
    """
    rows = []
    skipped = []
    baseline = None
    for run_dir in run_dirs:
        path = Path(run_dir) / "report.kv"
        try:
            kv = em.read_report_kv(path)
            row = (Path(run_dir).name, float(kv["mape"]), float(kv["rmsle"]), float(kv["smape"]))
        except (OSError, ValueError, KeyError, DomainError):
            skipped.append(str(run_dir))
            continue
        rows.append(row)
        if baseline is None and "baseline_mape" in kv:
            baseline = ("mean-baseline", float(kv["baseline_mape"]),
                        float(kv["baseline_rmsle"]), float(kv["baseline_smape"]))
    if baseline is not None:
        rows.append(baseline)
    rows.sort(key=lambda r: r[1])
    if percent:
        rows = [(n, 100 * a, 100 * b, 100 * c) for n, a, b, c in rows]
    return rows, skipped


def format_table(rows) -> str:
    lines = ["model,mape,rmsle,smape"]
    for name, a, b, c in rows:
        lines.append(f"{name},{a:.12g},{b:.12g},{c:.12g}")
    return "\n".join(lines) + "\n"


ATTENTION_SWEEP = (
    ("no_attention", {"attention_mode": "none"}),
    ("shuffle", {"attention_mode": "shuffle_only"}),
    ("senet", {"attention_mode": "se_only"}),
    ("shuffle_senet", {"attention_mode": "shuffle_senet"}),
    ("conv", {"conv_mode": "conv_only"}),
    ("condconv", {"conv_mode": "condconv_only"}),
    ("dilated_conv", {"conv_mode": "dilated"}),
    ("senet_shuffle_conv_condconv", {}),  # the default composition
)

OPTIMIZER_SWEEP = (
    ("no_optimizer", {"feature_selector": "none"}),
    ("equilibrium", {"feature_selector": "eo"}),
)


def run_ablation_sweep(base_cfg: RunConfig, data_path, out_root) -> dict:
    """Run the attention/conv and optimizer switch sweeps into subdirectories
    and emit one comparison table per axis. Returns table paths.

    A variant whose run directory already holds a ``report.kv``, a
    ``config.txt`` and a ``data.txt`` is not run again. It is reused only
    when those two snapshots are the variant's; otherwise ConfigError names
    the keys that differ. Every variant is checked before any runs, so a
    refused sweep writes nothing. Each distinct config runs once: a variant
    with the config of another variant's finished run gets a copy of that
    run directory."""
    from dataclasses import replace

    out_root = Path(out_root)
    bound = _data_text(data_path, sd.load_dataset(data_path))
    axes = {axis: [(replace(base_cfg, **overrides).validate(), out_root / axis / name)
                   for name, overrides in sweep]
            for axis, sweep in (("attention", ATTENTION_SWEEP), ("optimizer", OPTIMIZER_SWEEP))}
    done = set()
    finished = {}  # config text -> a run directory holding that config's finished run
    for cfg, run_dir in [variant for variants in axes.values() for variant in variants]:
        if all((run_dir / f).exists() for f in ("report.kv", "config.txt", "data.txt")):
            _refuse_other(run_dir / "config.txt", config_text(cfg), "reuse", "config")
            _refuse_other(run_dir / "data.txt", bound, "reuse", "dataset")
            done.add(run_dir)
            finished.setdefault(config_text(cfg), run_dir)
    tables = {}
    for axis, variants in axes.items():
        for cfg, run_dir in variants:
            if run_dir in done:
                continue
            text = config_text(cfg)
            if text in finished:
                shutil.copytree(finished[text], run_dir, dirs_exist_ok=True)
            else:
                run_pipeline(cfg, data_path, run_dir)
                finished[text] = run_dir
        rows, _ = merge_reports([run_dir for _, run_dir in variants])
        tables[axis] = out_root / f"ablation_{axis}.txt"
        tables[axis].write_text(format_table(rows))
    return tables
