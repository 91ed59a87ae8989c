#!/usr/bin/env python3
"""Record the acceptance benchmark of one source tree in a BENCH_<n>.json file.

For each acceptance seed (1, 2, 3) it runs ``cropyield synth --source S2
--plots 60 --seed s`` and then ``cropyield pipeline --seed s`` on the full
schedule (the RunConfig defaults), each seed in a fresh process with BLAS
pinned to one thread. It records the wall time of each stage, the MAPE /
baseline-MAPE ratio, the selected mask, the fine-tune's best epoch, the
hold-out separation and the digests of the run's files. It then runs
``perfbench/run.py --workload pipeline-s2 --trace 1`` in the same tree and
copies the traced run's summary.json in, with the per-layer times.

Without ``--parent`` it measures this checkout and writes ``runs.change``
of the output file; with ``--parent CHECKOUT`` (a tree with
``src/cropyield`` and ``perfbench/``) it measures that tree and writes
``runs.parent``. Each keeps what the other recorded, so the two sit side
by side and ``comparison`` holds the per-seed digests and times of both:

    python3 scripts/bench.py --parent ../parent --out BENCH_9.json
    python3 scripts/bench.py --out BENCH_9.json

Working files go to a temporary directory that is removed.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEEDS = (1, 2, 3)
PERFBENCH_SECONDS = 15  # BENCHMARK.json's run_seconds, the same for both trees
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve()


def run_seed(seed: int, work: Path) -> dict:
    """One seed's synth and pipeline, in this process, with the stages timed."""
    from cropyield import pipeline
    from cropyield.cli import main

    data, run_dir = work / f"s2-seed{seed}.mtms", work / f"run-seed{seed}"
    t0 = time.perf_counter()
    if main(["synth", "--source", "S2", "--plots", "60", "--seed", str(seed),
             "--out", str(data)]):
        raise SystemExit(f"synth failed for seed {seed}")
    synth_s = time.perf_counter() - t0

    stage_s = {}
    for stage, runner in list(pipeline._RUNNERS.items()):
        def timed(*args, _stage=stage, _runner=runner):
            start = time.perf_counter()
            try:
                return _runner(*args)
            finally:
                stage_s[_stage] = time.perf_counter() - start
        pipeline._RUNNERS[stage] = timed
    t0 = time.perf_counter()
    code = main(["pipeline", "--data", str(data), "--out", str(run_dir), "--seed", str(seed)])
    pipeline_s = time.perf_counter() - t0
    if code:
        return {"exit": code, "pipeline_s": pipeline_s, "stage_s": stage_s}

    kv = dict(line.split("=", 1) for line in (run_dir / "report.kv").read_text().split())
    stats = dict(line.split("=", 1)
                 for line in (run_dir / "pretrain_stats.kv").read_text().split())
    curve = (run_dir / "train_curve.txt").read_text().splitlines()
    best = [line.split("=", 1)[1] for line in curve if line.startswith("# best_epoch=")]
    return {
        "exit": 0,
        "synth_s": synth_s,
        "pipeline_s": pipeline_s,
        "stage_s": stage_s,
        "load_and_prep_s": pipeline_s - sum(stage_s.values()),
        "mape_ratio": float(kv["mape"]) / float(kv["baseline_mape"]),
        "mape": float(kv["mape"]),
        "baseline_mape": float(kv["baseline_mape"]),
        "mask": (run_dir / "mask.txt").read_text().splitlines()[0],
        "finetune_best_epoch": int(best[0]) if best else None,
        "holdout_separation": float(stats.get("holdout_separation", "nan")),
        "digests": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(run_dir.iterdir()) if p.is_file()},
    }


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pinning": {var: os.environ.get(var) for var in PINNED},
    }
    try:
        facts["cpu"] = next(line.split(":", 1)[1].strip()
                            for line in Path("/proc/cpuinfo").read_text().splitlines()
                            if line.startswith("model name"))
    except (OSError, StopIteration):
        facts["cpu"] = platform.processor()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        facts["blas"] = None
    return facts


def worker(seed: int, work: Path) -> None:
    print(json.dumps({"seed": seed, **run_seed(seed, work), "machine": machine_facts()}))


def _pinned_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: "1" for var in PINNED})
    return env


def record(root: Path) -> dict:
    env = _pinned_env(root)
    seeds, machine = {}, None
    with tempfile.TemporaryDirectory(prefix="cropyield-bench-") as tmp:
        for seed in SEEDS:
            out = subprocess.run([sys.executable, str(HERE), "--worker-seed", str(seed),
                                  "--work", tmp], env=env, check=True, capture_output=True,
                                 text=True).stdout
            row = json.loads(out.splitlines()[-1])
            machine = row.pop("machine")
            seeds[str(seed)] = row
            print(f"seed {seed}: pipeline {row['pipeline_s']:.1f} s, "
                  f"MAPE ratio {row.get('mape_ratio')}", file=sys.stderr)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline-s2",
                           "--seed", "1", "--seconds", str(PERFBENCH_SECONDS), "--trace", "1"],
                          cwd=root, env=env, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    summary = json.loads((root / "perfbench/out/trace/pipeline-s2-seed1/summary.json").read_text())
    return {"root": str(root), "machine": machine, "seeds": seeds,
            "perfbench_pipeline_s2_trace": {"seconds": PERFBENCH_SECONDS, "result": result,
                                            "summary": summary}}


def compare(runs: dict) -> dict:
    """Per seed, when a parent and a change were recorded: byte identity and times."""
    if "parent" not in runs or "change" not in runs:
        return {}
    out = {}
    for seed, new in runs["change"]["seeds"].items():
        old = runs["parent"]["seeds"].get(seed)
        if old is None:
            continue
        out[seed] = {
            "artifacts_identical": old.get("digests") == new.get("digests"),
            "pipeline_s": [old["pipeline_s"], new["pipeline_s"]],
            "stage_s": {k: [old["stage_s"].get(k), v] for k, v in new["stage_s"].items()},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path,
                        help="parent checkout to measure, recorded as runs.parent "
                             "(default: this checkout, recorded as runs.change)")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--worker-seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker_seed is not None:
        worker(args.worker_seed, args.work)
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": "acceptance config (S2, 60 plots, 10x10, T=6), full schedule, seeds 1-3; "
                "times in seconds, one BLAS thread",
        "runs": {}}
    other = [side for side, run in doc["runs"].items()
             if run["perfbench_pipeline_s2_trace"].get("seconds") != PERFBENCH_SECONDS]
    if other:
        raise SystemExit(f"{args.out}: runs {other} have another perfbench run length than "
                         f"{PERFBENCH_SECONDS} s; write to a new file")
    label, root = ("change", HERE.parent.parent) if args.parent is None else ("parent", args.parent)
    doc["runs"][label] = record(root.resolve())
    doc["comparison"] = compare(doc["runs"])
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
