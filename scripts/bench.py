#!/usr/bin/env python3
"""Record the acceptance benchmark of one source tree in a BENCH_<n>.json file.

For each acceptance seed (1, 2, 3) it runs ``cropyield synth --source S2
--plots 60 --seed s`` and then ``cropyield pipeline --seed s`` on the full
schedule (the RunConfig defaults), once for each k = 0..ULPS with
``pretrain_lr`` moved k ULPs up through a config file. Each run is a fresh
process with BLAS pinned to one thread. Per seed and k it records the wall
time of each stage, the MAPE / baseline-MAPE ratio, the hold-out
separation, the epoch-0 contrastive loss over log(batch) (the band that
criterion 5 and perfbench's ``pipeline-s2`` check bound), the selected
mask, the head's ridge penalty, the exit code, the worker process's peak
RSS (``peak_rss_mb``, its ``ru_maxrss``: the synth of the seed's dataset at
k = 0 and the pipeline), its minor page faults and user and system CPU
seconds over the same span (``ru_minflt``, ``ru_utime``, ``ru_stime``) and
the digests of the run's files, and it counts the runs that pass
acceptance criteria 5 and 6. The k = 0 runs are the
acceptance runs; the others show how widely the criterion margins spread
under a last-bit change of one input. It then runs ``perfbench/run.py
--workload <w> --trace 1`` for ``pipeline-s2`` and ``ingest-s2`` in the
same tree and keeps each run's detail and result lines and its
summary.json, with the per-layer times.

Without ``--parent`` it measures this checkout and writes ``runs.change``
of the output file; with ``--parent CHECKOUT`` (a git checkout with
``src/cropyield`` and ``perfbench/``) it measures that tree and writes
``runs.parent``. Each side records its commit id and whether its tracked
files differ from that commit. Each keeps what the other recorded, so the
two sit side by side and ``comparison`` holds, per seed and k, the files
that differ and both sides' MAPE ratio, peak RSS and minor faults. It
pairs no times or CPU seconds: the two sides run minutes apart, and
what the machine does in between moves them (in
``BENCH_22.json`` the change side read 8-44 % slower at every seed and k,
and its traced ``ingest-s2``, whose code neither side touched, saved at
76 against 112 MB/s). Each side's probe rows keep all their times; a time
claim uses ``--pairs``:

    python3 scripts/bench.py --parent ../parent --out BENCH_9.json
    python3 scripts/bench.py --out BENCH_9.json

With ``--pairs WORKLOAD [WORKLOAD ...]`` it runs only the end-to-end
measurement instead: for each workload in turn, ``PAIRS`` (10) alternating
pairs of untraced perfbench runs of the parent and of this checkout at each
``--pair-seeds`` seed, the parent first in every other pair. Each A/B pair is followed by an A/A pair in the same
alternation: two more fresh clones of the parent, the A/A parent and the
control, which show how large a gap the same code can show in this
session. Each of the four sides runs from its own fresh clone of its
commit in the temporary directory, so that no tree's location or untracked
files count and no clone makes more than a quarter of the runs; a tree
whose tracked files differ from its commit is refused. The trees are
cloned once for all the workloads, and ``--out`` is written once, after the
last run, so one commit id per side covers every workload and the output
file, even when it is tracked in this checkout, leaves it clean until then. It stores
each side's commit id, every run's result line, each side's median and
quartiles of each end-to-end metric, the pairs the change wins on each
(``change_wins``) and the pairs the control wins in the A/A arm
(``control_wins``), and each side's gap: the change median over the parent
median, minus 1 (``change_gap``), and the control median over the A/A
parent median, minus 1 (``control_gap``), under ``pairs.<workload>/seed<s>``.
A gain shows as a ``change_gap`` many times the ``control_gap``, the gap
the same code showed alongside. These pairs are the only
untraced end-to-end figures a BENCH file holds:

    python3 scripts/bench.py --parent ../parent --out BENCH_9.json \
        --pairs pipeline-s2 predict-l8-32 ingest-s2

Working files go to a temporary directory that is removed.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEEDS = (1, 2, 3)
ULPS = 3  # pretrain_lr is moved k = 0..ULPS ULPs up
PERFBENCH_SECONDS = 15  # BENCHMARK.json's run_seconds, the same for both trees
PAIRS = 10  # alternating parent/change and parent/control pairs per workload and seed
TRACED = ("pipeline-s2", "ingest-s2")
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COUNTERS = ("ru_minflt", "ru_utime", "ru_stime")  # a probe worker's minor faults and CPU seconds
HERE = Path(__file__).resolve()


def passes_criterion_5(stats: dict) -> bool:
    """tests/test_acceptance.py criterion 5 on one run's pretrain statistics."""
    sep = float(stats["holdout_pos_sim"]) - float(stats["holdout_neg_sim"])
    uniform, epoch0 = float(stats["uniform_loss"]), float(stats["epoch0_loss"])
    return (sep >= 0.2 and 0.9 * uniform <= epoch0 <= 1.1 * uniform
            and float(stats["final_loss"]) < epoch0)


def run_seed(seed: int, ulps: int, work: Path) -> dict:
    """One seed's pipeline at ``pretrain_lr`` + ``ulps`` ULPs, in this process,
    with the stages timed; the seed's dataset is synthesized once per side."""
    from cropyield import pipeline
    from cropyield.cli import main
    from cropyield.config import RunConfig

    data, run_dir = work / f"s2-seed{seed}.mtms", work / f"run-seed{seed}-ulp{ulps}"
    synth_s = None
    if not data.exists():
        t0 = time.perf_counter()
        if main(["synth", "--source", "S2", "--plots", "60", "--seed", str(seed),
                 "--out", str(data)]):
            raise SystemExit(f"synth failed for seed {seed}")
        synth_s = time.perf_counter() - t0
    lr = RunConfig().pretrain_lr
    for _ in range(ulps):
        lr = math.nextafter(lr, math.inf)
    config = work / f"ulp{ulps}.cfg"
    config.write_text(f"pretrain_lr={lr!r}\n")

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
    code = main(["pipeline", "--data", str(data), "--out", str(run_dir), "--seed", str(seed),
                 "--config", str(config)])
    pipeline_s = time.perf_counter() - t0
    return {"exit": code, "run_dir": str(run_dir), "pretrain_lr": lr, "synth_s": synth_s,
            "pipeline_s": pipeline_s, "stage_s": stage_s, "criterion_5": False,
            "criterion_6": False}


def read_run(run_dir: Path, row: dict) -> dict:
    """The figures of the finished probe run ``row``, read from its files by
    this checkout's ``fileio`` (``record`` puts it on the path)."""
    from cropyield.fileio import parse_kv

    kv = parse_kv((run_dir / "report.kv").read_text())
    stats = parse_kv((run_dir / "pretrain_stats.kv").read_text())
    curve = (run_dir / "train_curve.txt").read_text().splitlines()
    notes = parse_kv("\n".join(line[2:] for line in curve if line.startswith("# ")))
    ratio = float(kv["mape"]) / float(kv["baseline_mape"])
    return {
        "load_and_prep_s": row["pipeline_s"] - sum(row["stage_s"].values()),
        "mape_ratio": ratio,
        "mape": float(kv["mape"]),
        "baseline_mape": float(kv["baseline_mape"]),
        "mask": (run_dir / "mask.txt").read_text().splitlines()[0],
        "ridge_lambda": float(notes["ridge_lambda"]),
        "holdout_separation": float(stats.get("holdout_separation", "nan")),
        "epoch0_over_log_batch": float(stats["epoch0_loss"]) / float(stats["uniform_loss"]),
        "criterion_5": passes_criterion_5(stats),
        "criterion_6": ratio <= 0.8 and row["pipeline_s"] < 600.0,
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


def worker(seed: int, ulps: int, work: Path) -> None:
    row = run_seed(seed, ulps, work)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"seed": seed, "ulps": ulps, **row,
                      "peak_rss_mb": usage.ru_maxrss / 1024.0,  # as perfbench's
                      **{key: getattr(usage, key) for key in COUNTERS},
                      "machine": machine_facts()}))


def _pinned_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: "1" for var in PINNED})
    return env


def _git(root: Path, *args) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(root), *args], check=True,
                              capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def source_id(root: Path) -> dict:
    """The commit a tree is checked out at, and whether its tracked files differ from it."""
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"commit": commit.strip() if commit else None,
            "dirty": bool(status.strip()) if status is not None else None}


def record(root: Path) -> dict:
    env = _pinned_env(root)
    sys.path.insert(0, str(HERE.parent.parent / "src"))  # for read_run
    probe, machine = {}, None
    with tempfile.TemporaryDirectory(prefix="cropyield-bench-") as tmp:
        for seed in SEEDS:
            for ulps in range(ULPS + 1):
                proc = subprocess.run([sys.executable, str(HERE), "--worker-seed", str(seed),
                                       "--worker-ulps", str(ulps), "--work", tmp], env=env,
                                      capture_output=True, text=True)
                lines = proc.stdout.splitlines()
                if proc.returncode or not lines:
                    row = {"seed": seed, "ulps": ulps, "exit": proc.returncode,
                           "criterion_5": False, "criterion_6": False,
                           "stderr_tail": proc.stderr[-400:]}
                else:
                    row = json.loads(lines[-1])
                    machine, run_dir = row.pop("machine"), Path(row.pop("run_dir"))
                    if not row["exit"]:
                        row.update(read_run(run_dir, row))
                probe.setdefault(str(seed), []).append(row)
                print(f"seed {seed} k={ulps}: exit {row['exit']}, "
                      f"pipeline {row.get('pipeline_s', math.nan):.1f} s, "
                      f"MAPE ratio {row.get('mape_ratio')}", file=sys.stderr)
    rows = [row for runs in probe.values() for row in runs]
    passes = {c: f"{sum(row[c] for row in rows)}/{len(rows)}"
              for c in ("criterion_5", "criterion_6")}
    traced = {}
    for w in TRACED:
        traced[w] = perfbench(root, env, w, trace=True)
        traced[w]["summary"] = json.loads(
            (root / f"perfbench/out/trace/{w}-seed1/summary.json").read_text())
    return {**source_id(root), "machine": machine, "ulp_probe": probe, "passes": passes,
            "perfbench": {"seconds": PERFBENCH_SECONDS, "seed": 1, "traced": traced}}


def perfbench(root: Path, env: dict, workload: str, trace: bool, seed: int = 1) -> dict:
    """One ``perfbench/run.py`` run of ``workload`` in ``root``: its detail line
    (the workload's own figures) and its result line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(PERFBENCH_SECONDS),
                           "--trace", str(int(trace))],
                          cwd=root, env=env, check=True, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    details = [json.loads(line[len("detail "):]) for line in lines if line.startswith("detail ")]
    return {"detail": details[-1] if details else None, "result": json.loads(lines[-1])}


def compare(runs: dict) -> dict:
    """Per seed and k, when a parent and a change were recorded: the run files
    whose bytes differ, and the MAPE ratio, peak RSS and minor faults of both."""
    if "parent" not in runs or "change" not in runs:
        return {}
    out = {}
    for seed, new_rows in runs["change"]["ulp_probe"].items():
        old_rows = runs["parent"]["ulp_probe"].get(seed, [])
        for old, new in zip(old_rows, new_rows):
            a, b = old.get("digests", {}), new.get("digests", {})
            out[f"{seed}/{new['ulps']}"] = {
                "files_differing": sorted(n for n in a.keys() | b.keys() if a.get(n) != b.get(n)),
                **{key: [old.get(key), new.get(key)]
                   for key in ("mape_ratio", "peak_rss_mb", "ru_minflt")},
            }
    return out


def _clone(root: Path, dest: Path) -> dict:
    """Clone the commit ``root`` has checked out into ``dest``; returns its
    ``source_id``. A tree whose tracked files differ from its commit is refused."""
    source = source_id(root)
    if source["commit"] is None or source["dirty"] is not False:
        raise SystemExit(f"{root}: not a clean git checkout ({source}); commit first")
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(root), str(dest)], check=True)
    subprocess.run(["git", "-C", str(dest), "checkout", "--quiet", source["commit"]], check=True)
    return source


def _wins(values: dict, base: str, other: str) -> dict:
    """Per metric, the pairs in which ``other`` reads lower than ``base``; a
    tie counts for neither."""
    return {m: f"{sum(o < b for b, o in zip(v, values[other][m]))}/{PAIRS}"
            for m, v in values[base].items()}


def _gap(values: dict, base: str, other: str) -> dict:
    """Per metric, ``other``'s median over ``base``'s median, minus 1."""
    return {m: statistics.median(values[other][m]) / statistics.median(v) - 1
            for m, v in values[base].items()}


def _pair_summary(results: dict, sources: dict) -> dict:
    values = {side: {m: [r["metrics"][m]["value"] for r in rows] for m in rows[0]["metrics"]}
              for side, rows in results.items()}
    return {"seconds": PERFBENCH_SECONDS, "sources": sources, "results": results,
            "quartiles": {side: {m: statistics.quantiles(v, n=4) for m, v in by_metric.items()}
                          for side, by_metric in values.items()},
            "change_wins": _wins(values, "parent", "change"),
            "control_wins": _wins(values, "aa_parent", "control"),
            "change_gap": _gap(values, "parent", "change"),
            "control_gap": _gap(values, "aa_parent", "control")}


def pairs(parent: Path, workloads, seeds) -> dict:
    """Per workload and seed, ``PAIRS`` alternating A/B pairs of untraced
    perfbench runs of ``parent`` and of this checkout, each followed by an
    A/A pair of two more clones of ``parent``: the A/A parent and the
    control. Each side runs from its own clone, and the four trees are
    cloned once, before any run, so that one commit id per side covers every
    workload; a lower metric wins a pair."""
    arms = (("parent", "change"), ("aa_parent", "control"))
    out = {}
    with tempfile.TemporaryDirectory(prefix="cropyield-pairs-") as tmp:
        origins = {"parent": parent, "change": HERE.parent.parent,
                   "aa_parent": parent, "control": parent}
        roots = {side: Path(tmp, side) for side in origins}
        sources = {side: _clone(origin, roots[side]) for side, origin in origins.items()}
        for workload in workloads:
            for seed in seeds:
                results = {side: [] for arm in arms for side in arm}
                for i in range(PAIRS):
                    for arm in arms:
                        for side in arm if i % 2 == 0 else arm[::-1]:
                            run = perfbench(roots[side], _pinned_env(roots[side]), workload,
                                            False, seed)
                            results[side].append(run["result"])
                            print(f"{workload} seed {seed} pair {i} {side}: task_s "
                                  f"{run['result']['metrics']['task_s']['value']:.3f}",
                                  file=sys.stderr)
                out[f"{workload}/seed{seed}"] = _pair_summary(results, sources)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path,
                        help="parent checkout to measure, recorded as runs.parent "
                             "(default: this checkout, recorded as runs.change)")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    parser.add_argument("--pairs", metavar="WORKLOAD", nargs="+",
                        help="run only alternating parent/change pairs of these workloads "
                             "(needs --parent); --out is written once all have run")
    parser.add_argument("--pair-seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--worker-seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--worker-ulps", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker_seed is not None:
        worker(args.worker_seed, args.worker_ulps, args.work)
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": f"acceptance config (S2, 60 plots, 10x10, T=6), full schedule, seeds 1-3, "
                f"each at pretrain_lr + k ULPs for k = 0..{ULPS}; times in seconds, "
                f"one BLAS thread",
        "runs": {}}
    if args.pairs:
        if args.parent is None:
            parser.error("--pairs needs --parent")
        doc.setdefault("pairs", {}).update(pairs(args.parent.resolve(), args.pairs,
                                                 args.pair_seeds))
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return 0
    other = [side for side, run in doc["runs"].items()
             if run.get("perfbench", {}).get("seconds") != PERFBENCH_SECONDS]
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
