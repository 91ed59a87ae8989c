"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root. Each workload runs in its own process with
BLAS pinned to one thread. The run sets up three times (``setup_s`` is the
median), then repeats whole tasks until ``--seconds`` have passed, checks
every output, and prints a ``detail`` line followed by one JSON result line:
end-to-end metrics with ``--trace 0``; with ``--trace 1`` untraced and
traced tasks alternate, and the result holds the per-layer metrics, whose
spans are written under ``perfbench/out/trace/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("pipeline-s2", "predict-l8-32", "ingest-s2")


def _import_program():
    src = ROOT / "src"
    if not (src / "cropyield" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))
    import workloads
    return workloads


def _run_task(workload, i: int, tracer=None):
    """One task; an exception fails all of the task's operations."""
    if tracer is not None:
        layers.install(tracer)
    try:
        result = workload.task(i)
        result["failed"] = 0
    except Exception:  # the program failed: count it and keep measuring
        traceback.print_exc()
        result = {"failed": 1}
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workloads = _import_program()
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[name](seed, work)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - t0)

        plain, traced = [], []
        tracer = layers.Tracer() if trace else None
        start = perf_counter()
        while True:
            plain.append(_run_task(workload, len(plain) + len(traced)))
            if trace:
                traced.append(_run_task(workload, len(plain) + len(traced), tracer))
            if perf_counter() - start >= seconds:
                break
        done = [r for r in plain + traced if not r["failed"]]
        problems = workload.check() if done else ["every task failed"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"CHECK FAILED {name}: {problem}", file=sys.stderr)
    attempted = workload.ops * len(plain + traced)
    failed = workload.ops * sum(r["failed"] for r in plain + traced)
    ok_plain = [r for r in plain if not r["failed"]]
    ok_traced = [r for r in traced if not r["failed"]]
    if not ok_plain or (trace and not ok_traced):
        sys.exit(f"perfbench: every untraced or every traced task of {name} failed")

    def median(key, rows=ok_plain):
        return statistics.median(r[key] for r in rows)

    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures = {key: median(key) for key in ok_plain[0] if key not in ("task_s", "failed")}
    print("detail " + json.dumps({
        "workload": name, "seed": seed, "tasks": len(plain), "traced_tasks": len(traced),
        "task_s_each": [round(r["task_s"], 4) for r in ok_plain],
        "figures": figures, "units": {k: workloads.FIGURE_UNITS[k] for k in figures},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}))

    if trace:
        overhead = median("task_s", ok_traced) - median("task_s")
        metrics = layers.per_layer(tracer, len(traced), median("task_s", ok_traced), overhead)
        tracer.write(OUT / "trace" / f"{name}-seed{seed}", {
            "workload": name, "seed": seed, "traced_tasks": len(traced),
            "untraced_task_s": median("task_s"), "spans": tracer.per_name(),
            "metrics": metrics})
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "task_s": (median("task_s"), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process; prints their lines under a header."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
