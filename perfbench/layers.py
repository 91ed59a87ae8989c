"""Which spans the traced run records and which per-layer metrics it reports.

Each per-layer metric is given per traced task (one pipeline, one block of
plot predictions, one save/load round). README.md names the workload
figure each should move; layers a workload does not use read 0 on it.
"""

from __future__ import annotations

import importlib
import os

from tracing import Tracer

MODULES = ("tensor", "convlstm", "attention", "diffusion", "contrastive", "eo", "predictor",
           "pipeline", "evalmetrics", "fileio", "synthdata", "config")


def _module(short):
    return importlib.import_module(f"cropyield.{short}")


def install(tracer: Tracer) -> None:
    """Wrap the program's public functions, with hooks for the counts below."""
    pipeline = _module("pipeline")
    tracer.install(
        {short: _module(short) for short in MODULES},
        hooks=_hooks(tracer),
        namers={"predictor.train_final": lambda args, kwargs: (
            "predictor.finetune" if kwargs.get("finetune_encoder") else "predictor.warmup")},
        tables=[(pipeline._RUNNERS, stage, f"pipeline.stage.{stage}")
                for stage in pipeline.STAGES],
    )


def _hooks(tracer: Tracer) -> dict:
    counters, gauges = tracer.counters, tracer.gauges

    def add(key, amount):
        counters[key] += amount

    def conv2d(args, kwargs, out):
        x, k = args[0].data, args[1].data
        c_out, c_in, kh, kw = k.shape
        _, h_out, w_out = out.data.shape
        add("tensor.conv2d.flops", 2 * c_out * c_in * kh * kw * h_out * w_out)
        add("tensor.conv2d.bytes", 8 * (x.size + k.size + out.data.size))

    def file_bytes(key, arg):
        def hook(args, kwargs, out):
            add(key, os.path.getsize(args[arg]))
        return hook

    def fitness_factory(args, kwargs, fitness):
        seen = set()

        def record(fargs, fkwargs, value):
            mask = fargs[0].tobytes()
            if mask not in seen:
                seen.add(mask)
                add("eo.fitness.distinct", 1)

        return tracer.wrap(fitness, "eo.fitness", record)

    def train_final(args, kwargs, result):
        key = "predictor.finetune" if kwargs.get("finetune_encoder") else "predictor.warmup"
        gauges[f"{key}.best_epoch_ratio"].append(result.best_epoch / (len(result.curve) - 1))

    def denoiser(args, kwargs, result):
        history = result[1]
        if history:
            gauges["diffusion.loss_last_over_first"].append(history[-1] / history[0])

    def pretrain(args, kwargs, result):
        gauges["contrastive.loss_final_over_epoch0"].append(
            result.loss_history[-1] / result.loss_history[0])
        if "holdout_separation" in result.stats:
            gauges["contrastive.holdout_separation"].append(result.stats["holdout_separation"])

    return {
        "tensor.conv2d": conv2d,
        "fileio.fnv1a64": lambda args, kwargs, out: add("fileio.fnv1a64.bytes", len(args[0])),
        "fileio.save_checkpoint": file_bytes("fileio.save_checkpoint.bytes", 0),
        "fileio.load_checkpoint": file_bytes("fileio.load_checkpoint.bytes", 0),
        "synthdata.save_dataset": file_bytes("synthdata.save_dataset.bytes", 1),
        "synthdata.load_dataset": file_bytes("synthdata.load_dataset.bytes", 0),
        "eo.make_probe_fitness": fitness_factory,
        "predictor.train_final": train_final,
        "diffusion.train_denoiser": denoiser,
        "contrastive.pretrain_encoder": pretrain,
    }


# (metric, unit, span, field); field is calls | s | self_s
_SPAN_METRICS = [
    ("tensor.conv2d.calls", "count", "tensor.conv2d", "calls"),
    ("tensor.conv2d.s", "s", "tensor.conv2d", "s"),
    ("tensor.backward.calls", "count", "tensor.Tensor.backward", "calls"),
    ("tensor.backward.s", "s", "tensor.Tensor.backward", "s"),
    ("tensor.cosine_similarity.calls", "count", "tensor.cosine_similarity", "calls"),
    ("convlstm.convlstm_step.calls", "count", "convlstm.convlstm_step", "calls"),
    ("convlstm.convlstm_step.s", "s", "convlstm.convlstm_step", "s"),
    ("attention.ssa_forward.calls", "count", "attention.ssa_forward", "calls"),
    ("attention.ssa_forward.s", "s", "attention.ssa_forward", "s"),
    ("diffusion.train_denoiser.s", "s", "diffusion.train_denoiser", "s"),
    ("diffusion.diffusion_loss.calls", "count", "diffusion.diffusion_loss", "calls"),
    ("diffusion.diffusion_loss.s", "s", "diffusion.diffusion_loss", "s"),
    ("diffusion.augment_pair.calls", "count", "diffusion.augment_pair", "calls"),
    ("diffusion.augment_pair.s", "s", "diffusion.augment_pair", "s"),
    ("contrastive.pretrain_encoder.s", "s", "contrastive.pretrain_encoder", "s"),
    ("contrastive.pretrain_encoder.self_s", "s", "contrastive.pretrain_encoder", "self_s"),
    ("contrastive.encode_features.calls", "count", "contrastive.encode_features", "calls"),
    ("contrastive.encode_features.s", "s", "contrastive.encode_features", "s"),
    ("contrastive.contrastive_loss.calls", "count", "contrastive.contrastive_loss", "calls"),
    ("contrastive.contrastive_loss.s", "s", "contrastive.contrastive_loss", "s"),
    ("eo.run_eo.s", "s", "eo.run_eo", "s"),
    ("eo.fitness.calls", "count", "eo.fitness", "calls"),
    ("eo.fitness.s", "s", "eo.fitness", "s"),
    ("predictor.warmup.s", "s", "predictor.warmup", "s"),
    ("predictor.warmup.self_s", "s", "predictor.warmup", "self_s"),
    ("predictor.finetune.s", "s", "predictor.finetune", "s"),
    ("predictor.predict_yield.calls", "count", "predictor.predict_yield", "calls"),
    ("predictor.predict_yield.s", "s", "predictor.predict_yield", "s"),
    ("pipeline.prepare_frames.s", "s", "pipeline.prepare_frames", "s"),
    ("pipeline.stage.pretrain.s", "s", "pipeline.stage.pretrain", "s"),
    ("pipeline.stage.select.s", "s", "pipeline.stage.select", "s"),
    ("pipeline.stage.train.s", "s", "pipeline.stage.train", "s"),
    ("pipeline.stage.evaluate.s", "s", "pipeline.stage.evaluate", "s"),
    ("pipeline.YieldModel.load.s", "s", "pipeline.YieldModel.load", "s"),
    ("pipeline.YieldModel.predict_frames.calls", "count", "pipeline.YieldModel.predict_frames",
     "calls"),
    ("pipeline.YieldModel.predict_frames.s", "s", "pipeline.YieldModel.predict_frames", "s"),
    ("evalmetrics.evaluate.s", "s", "evalmetrics.evaluate", "s"),
    ("fileio.save_checkpoint.calls", "count", "fileio.save_checkpoint", "calls"),
    ("fileio.save_checkpoint.s", "s", "fileio.save_checkpoint", "s"),
    ("fileio.load_checkpoint.calls", "count", "fileio.load_checkpoint", "calls"),
    ("fileio.load_checkpoint.s", "s", "fileio.load_checkpoint", "s"),
    ("fileio.fnv1a64.s", "s", "fileio.fnv1a64", "s"),
    ("synthdata.generate_dataset.s", "s", "synthdata.generate_dataset", "s"),
    ("synthdata.save_dataset.s", "s", "synthdata.save_dataset", "s"),
    ("synthdata.load_dataset.s", "s", "synthdata.load_dataset", "s"),
    ("synthdata.enhance_sample.calls", "count", "synthdata.enhance_sample", "calls"),
    ("synthdata.enhance_sample.s", "s", "synthdata.enhance_sample", "s"),
]

_COUNTER_METRICS = [
    ("tensor.conv2d.flops", "flop-computed"),
    ("tensor.conv2d.bytes", "B-computed"),
    ("fileio.save_checkpoint.bytes", "B"),
    ("fileio.load_checkpoint.bytes", "B"),
    ("fileio.fnv1a64.bytes", "B"),
    ("synthdata.save_dataset.bytes", "B"),
    ("synthdata.load_dataset.bytes", "B"),
]

# values a traced task's training functions returned, averaged over tasks
_GAUGE_METRICS = [
    ("diffusion.loss_last_over_first", "ratio"),
    ("contrastive.loss_final_over_epoch0", "ratio"),
    ("contrastive.holdout_separation", "cos"),
    ("predictor.warmup.best_epoch_ratio", "ratio"),
    ("predictor.finetune.best_epoch_ratio", "ratio"),
]


def per_layer(tracer: Tracer, tasks: int, traced_task_s: float, overhead_s: float) -> dict:
    """metric -> (value, unit), per traced task."""
    spans = tracer.per_name()
    out = {}
    for metric, unit, span, field in _SPAN_METRICS:
        out[metric] = (spans.get(span, {}).get(field, 0) / tasks, unit)
    for stage, row in tracer.per_stage("tensor.Tensor.backward").items():
        if stage in ("pretrain", "train"):
            out[f"tensor.backward.{stage}.calls"] = (row["calls"] / tasks, "count")
            out[f"tensor.backward.{stage}.s"] = (row["s"] / tasks, "s")
    for stage in ("pretrain", "train"):
        out.setdefault(f"tensor.backward.{stage}.calls", (0, "count"))
        out.setdefault(f"tensor.backward.{stage}.s", (0, "s"))
    for metric, unit in _COUNTER_METRICS:
        out[metric] = (tracer.counters.get(metric, 0) / tasks, unit)
    for metric, unit in _GAUGE_METRICS:
        values = tracer.gauges.get(metric, [])
        out[metric] = (sum(values) / len(values) if values else 0, unit)
    calls = spans.get("eo.fitness", {}).get("calls", 0)
    distinct = tracer.counters.get("eo.fitness.distinct", 0)
    out["eo.fitness.distinct_ratio"] = (distinct / calls if calls else 0, "ratio")
    out["trace.spans"] = (len(tracer.start) / tasks, "count")
    out["trace.task_s"] = (traced_task_s, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_ratio"] = (overhead_s / (traced_task_s - overhead_s), "ratio")
    return out
