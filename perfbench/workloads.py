"""The three workloads: set-up, one timed task, and checks of the outputs.

A workload builds its inputs from the seed in ``setup``, then ``task(i)``
does one whole unit of the work a user would do and returns its timings.
``check`` compares what the tasks produced with the independent references
in ``refs`` or with properties the method must have; it never compares with
a stored copy of an earlier run's output.

Every task returns ``task_s`` (the timed unit of work) plus workload
figures reported on the detail line; ``ops`` is the number of operations
one task attempts.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import refs
from tracing import Tracer
from cropyield import fileio
from cropyield import pipeline as pl
from cropyield import synthdata as sd
from cropyield.config import RunConfig
from cropyield.errors import ChecksumMismatchError
from cropyield.evalmetrics import read_report_kv

MB = 1e6
# units of the workload figures printed on the detail line
FIGURE_UNITS = {
    "pipeline_s": "s", "pretrain_s": "s", "select_s": "s", "train_s": "s", "evaluate_s": "s",
    "mape_ratio": "ratio", "predict_plots_per_s": "plots/s", "model_load_s": "s",
    "save_mb_per_s": "MB/s", "load_mb_per_s": "MB/s", "ckpt_round_trip_s": "s",
}


def _payload_start(data: bytes, text_lines: int) -> int:
    """Offset just past the first ``text_lines`` newline-terminated lines."""
    pos = 0
    for _ in range(text_lines):
        pos = data.index(b"\n", pos) + 1
    return pos


def _check_container(path: Path, header_lines: int, loader, what: str) -> list[str]:
    """Trailer equals the independent FNV-1a-64 of everything after the header,
    and a copy with one flipped payload byte is refused."""
    problems = []
    data = path.read_bytes()
    start = _payload_start(data, header_lines)
    stored = struct.unpack("<Q", data[-8:])[0]
    expected = refs.fnv1a64(data[start:-8])
    if stored != expected:
        problems.append(f"{what}: trailer {stored:016x} != independent FNV-1a-64 {expected:016x}")
    flipped = bytearray(data)
    del data
    flipped[_payload_start(flipped, header_lines + 1) + 3] ^= 0x10  # inside the first payload
    bad = path.with_name(path.name + ".flipped")
    bad.write_bytes(flipped)
    del flipped
    try:
        loader(bad)
        problems.append(f"{what}: a flipped payload byte loaded without error")
    except ChecksumMismatchError:
        pass
    finally:
        bad.unlink()
    return problems


# -- pipeline-s2 ------------------------------------------------------------------

# The acceptance config on a shortened schedule, so that one pipeline fits a
# benchmark run; every stage still runs. Fine-tuning runs exactly one epoch
# whatever the validation curve does.
PIPELINE_SCHEDULE = dict(denoiser_epochs=2, pretrain_epochs=10, finetune_epochs=1, patience=1)
# The inputs are those of acceptance seed 1 whatever the benchmark seed: the
# mask EO selects sets the width of the head, so train time differs by seed
# (seen: about 10% of a pipeline), and that would add to the run-to-run spread.
PIPELINE_DATA_SEED = 1


class PipelineS2:
    name = "pipeline-s2"
    ops = 1

    def __init__(self, seed: int, work: Path):
        self.cfg = replace(RunConfig(seed=PIPELINE_DATA_SEED), **PIPELINE_SCHEDULE).validate()
        self.work = work
        self.data = work / "s2.mtms"
        self.runs: list[Path] = []

    def setup(self):
        self.ds = sd.generate_dataset(sd.BandSpec("S2"), self.cfg.n_plots, self.cfg.t_steps,
                                      self.cfg.height, self.cfg.width, seed=self.cfg.seed)
        sd.save_dataset(self.ds, self.data)

    def task(self, i: int) -> dict:
        run_dir = self.work / f"run{i}"
        stages = Tracer()  # spans around the four stage calls only
        stages.install({}, {}, {}, [(pl._RUNNERS, stage, stage) for stage in pl.STAGES])
        try:
            t0 = perf_counter()
            pl.run_pipeline(self.cfg, self.data, run_dir)
            task_s = perf_counter() - t0
        finally:
            stages.uninstall()
        self.runs.append(run_dir)
        kv = read_report_kv(run_dir / "report.kv")
        return {"task_s": task_s, "pipeline_s": task_s,
                **{f"{stage}_s": row["s"] for stage, row in stages.per_name().items()},
                "mape_ratio": float(kv["mape"]) / float(kv["baseline_mape"])}

    def check(self) -> list[str]:
        problems = []
        first = self.runs[0]
        ds = sd.split_dataset(self.ds, self.cfg.seed)
        frames = pl.prepare_frames(ds, self.cfg)
        y = [s.y for s in ds.samples]
        for run_dir in self.runs:
            tag = run_dir.name
            for name in ("report.kv", "model.ckpt", "pretrain.ckpt", "mask.txt"):
                if (run_dir / name).read_bytes() != (first / name).read_bytes():
                    problems.append(f"{tag}: {name} differs from {first.name} on identical inputs")
            kv = {k: float(v) for k, v in read_report_kv(run_dir / "report.kv").items()}
            ratio = kv["mape"] / kv["baseline_mape"]
            if not ratio <= 0.8:
                problems.append(f"{tag}: MAPE / train-mean-baseline MAPE = {ratio:.4f} > 0.8")

            losses = [float(line.split(",")[1]) for line in
                      (run_dir / "pretrain_loss.txt").read_text().splitlines()[1:]
                      if not line.startswith("#")]
            uniform = math.log(self.cfg.batch_size)
            if abs(losses[0] - uniform) > 0.1 * uniform:
                problems.append(f"{tag}: epoch-0 contrastive loss {losses[0]:.4f} not within "
                                f"10% of log(batch) {uniform:.4f}")
            if not losses[-1] < losses[0]:
                problems.append(f"{tag}: final contrastive loss {losses[-1]:.4f} "
                                f"not below epoch 0 {losses[0]:.4f}")

            best = [float(line.split(",")[1]) for line in
                    (run_dir / "eo_history.txt").read_text().splitlines()[1:]]
            if any(b > a for a, b in zip(best, best[1:])):
                problems.append(f"{tag}: EO best-fitness history increases")
            if "1" not in (run_dir / "mask.txt").read_text().splitlines()[0]:
                problems.append(f"{tag}: EO selected an empty mask")

            model = pl.YieldModel.load(run_dir, self.cfg)
            test = ds.split.test
            preds = [model.predict_frames(frames[i]) for i in test]
            truth = [y[i] for i in test]
            base = [sum(y[i] for i in ds.split.train) / len(ds.split.train)] * len(test)
            mine = {"mape": refs.mape(truth, preds), "rmsle": refs.rmsle(truth, preds),
                    "smape": refs.smape(truth, preds),
                    "baseline_mape": refs.mape(truth, base)}
            for key, value in mine.items():
                if not math.isclose(value, kv[key], rel_tol=1e-9):
                    problems.append(f"{tag}: recomputed {key} {value!r} != report.kv {kv[key]!r}")
        return problems


# -- predict-l8-32 ----------------------------------------------------------------

PREDICT_PLOTS = 256
PREDICT_BLOCK = 16  # plots per task; the first block is checked against refs.forward
# The checkpoint comes from the program's own pipeline on 10 of the plots. The
# schedule is minimal: forward cost does not depend on the weights.
PREDICT_TRAIN_PLOTS = 10
# batch_size=2 keeps the contrastive pass's graph of 32x32 maps small.
PREDICT_SCHEDULE = dict(denoiser_epochs=0, pretrain_epochs=0, batch_size=2, eo_iters=2,
                        train_epochs=5, finetune_encoder=False)


class PredictL832:
    name = "predict-l8-32"
    ops = 1 + PREDICT_BLOCK  # a model load and one prediction per plot

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.cfg = replace(RunConfig(seed=seed, source="L8", n_plots=PREDICT_TRAIN_PLOTS,
                                     height=32, width=32), **PREDICT_SCHEDULE).validate()
        self.work = work
        self.run_dir = work / "model"
        self.preds: dict[int, list[float]] = {}

    def setup(self):
        cfg = self.cfg
        self.frames = None  # drop the previous set-up's frames before building new ones
        ds = sd.generate_dataset(sd.BandSpec("L8"), PREDICT_PLOTS, cfg.t_steps, cfg.height,
                                 cfg.width, seed=self.seed)
        self.frames = pl.prepare_frames(ds, cfg)
        self.raw = [s.x for s in ds.samples[:PREDICT_BLOCK]]
        train_path = self.work / "l8-train.mtms"
        sd.save_dataset(sd.Dataset(ds.band_spec, ds.samples[:PREDICT_TRAIN_PLOTS]), train_path)
        pl.run_pipeline(cfg, train_path, self.run_dir)

    def task(self, i: int) -> dict:
        first = (i * PREDICT_BLOCK) % PREDICT_PLOTS
        block = range(first, first + PREDICT_BLOCK)
        t0 = perf_counter()
        model = pl.YieldModel.load(self.run_dir, self.cfg)
        t1 = perf_counter()
        preds = [model.predict_frames(self.frames[k]) for k in block]
        t2 = perf_counter()
        for k, p in zip(block, preds):
            self.preds.setdefault(k, []).append(p)
        return {"task_s": t2 - t0, "model_load_s": t1 - t0,
                "predict_plots_per_s": PREDICT_BLOCK / (t2 - t1)}

    def check(self) -> list[str]:
        problems = []
        for k, values in self.preds.items():
            if not all(math.isfinite(v) for v in values):
                problems.append(f"plot {k}: non-finite prediction {values}")
            elif any(v != values[0] for v in values):
                problems.append(f"plot {k}: predictions differ between tasks {values}")
        ckpt = fileio.load_checkpoint(self.run_dir / "model.ckpt")
        for k, x in enumerate(self.raw):
            frames = np.ascontiguousarray(refs.laplacian_sharpen(x).transpose(0, 3, 1, 2))
            want = refs.forward(frames, ckpt, self.cfg.shuffle_groups)
            got = self.preds[k][0]
            if not abs(got - want) <= 1e-9 * abs(want):
                problems.append(f"plot {k}: prediction {got!r} != reference forward {want!r}")
        return problems


# -- ingest-s2 ---------------------------------------------------------------------

INGEST_PLOTS = 600


def _checkpoint_arrays(rng, c_in=12, c_hid=8, k=3, side=10) -> dict:
    """Named arrays shaped like a pipeline model checkpoint."""
    shapes = {}
    for g in "ifoc":
        shapes[f"convlstm/w_f{g}"] = (c_hid, c_in, k, k)
        shapes[f"convlstm/w_h{g}"] = (c_hid, c_hid, k, k)
        shapes[f"convlstm/b_{g}"] = (c_hid,)
    for g in "ifo":
        shapes[f"convlstm/w_c{g}"] = (c_hid, side, side)
    shapes.update({"ssa/conv_kernel": (c_hid, c_hid, k, k), "ssa/expert_0": (c_hid, c_hid, k, k),
                   "ssa/expert_1": (c_hid, c_hid, k, k), "ssa/routing": (2, c_hid),
                   "head/w": (1, c_hid, k, k), "head/b": ()})
    return {name: rng.standard_normal(shape) for name, shape in shapes.items()}


class IngestS2:
    name = "ingest-s2"
    ops = 4  # dataset save and load, checkpoint save and load

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.path = work / "ingest.mtms"
        self.ckpt_path = work / "ingest.ckpt"
        self.digests: list[str] = []
        self.problems: list[str] = []

    def setup(self):
        self.ds = sd.generate_dataset(sd.BandSpec("S2"), INGEST_PLOTS, 6, 10, 10, seed=self.seed)
        self.named = _checkpoint_arrays(np.random.default_rng(self.seed))
        self.loaded = None

    def task(self, i: int) -> dict:
        # after the first task, each save writes back what the last load returned
        source = self.ds if self.loaded is None else self.loaded
        self.loaded = None  # at most one loaded copy is alive, however many tasks run
        t0 = perf_counter()
        sd.save_dataset(source, self.path)
        t1 = perf_counter()
        del source
        self.loaded = sd.load_dataset(self.path)
        t2 = perf_counter()
        fileio.save_checkpoint(self.ckpt_path, self.named)
        ckpt = fileio.load_checkpoint(self.ckpt_path)
        t3 = perf_counter()
        mb = self.path.stat().st_size / MB
        self.digests.append(hashlib.sha256(self.path.read_bytes()).hexdigest())
        self._compare(self.loaded, ckpt, i)
        return {"task_s": t3 - t0, "save_mb_per_s": mb / (t1 - t0),
                "load_mb_per_s": mb / (t2 - t1), "ckpt_round_trip_s": t3 - t2}

    def _compare(self, loaded, ckpt, i):
        if len(loaded.samples) != len(self.ds.samples):
            self.problems.append(f"task {i}: loaded {len(loaded.samples)} samples")
        for a, b in zip(self.ds.samples, loaded.samples):
            if (a.plot_id, a.season_tag, a.y) != (b.plot_id, b.season_tag, b.y) \
                    or a.x.tobytes() != b.x.tobytes():
                self.problems.append(f"task {i}: plot {a.plot_id} not bit-equal after load")
                break
        if sorted(ckpt) != sorted(self.named) or any(
                ckpt[k].tobytes() != np.asarray(v, dtype=np.float64).tobytes()
                for k, v in self.named.items()):
            self.problems.append(f"task {i}: checkpoint not bit-equal after load")

    def check(self) -> list[str]:
        problems = list(self.problems)
        if len(self.digests) == 1:  # a single task: re-save what it loaded
            sd.save_dataset(self.loaded, self.path)
            self.digests.append(hashlib.sha256(self.path.read_bytes()).hexdigest())
        if len(set(self.digests)) != 1:
            problems.append("re-saving the loaded dataset changed its bytes")
        problems += _check_container(self.path, 2, sd.load_dataset, "dataset")
        problems += _check_container(self.ckpt_path, 1, fileio.load_checkpoint, "checkpoint")
        return problems


WORKLOADS = {w.name: w for w in (PipelineS2, PredictL832, IngestS2)}
