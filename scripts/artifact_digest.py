#!/usr/bin/env python3
"""Print one `sha256  name` line per file of a run directory, sorted by name.

Two runs are byte-identical when their digests are. Given two run
directories, print the name of each file that differs or is missing from
one of them, and exit 1 if there is any (0 when the runs are identical):

    python3 scripts/artifact_digest.py runA
    python3 scripts/artifact_digest.py runA runB
"""

import argparse
import hashlib
import sys
from pathlib import Path


def digests(run_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in run_dir.iterdir() if p.is_file()}


def digest_lines(run_dir: Path) -> list[str]:
    return [f"{digest}  {name}" for name, digest in sorted(digests(run_dir).items())]


def compare(run_a: Path, run_b: Path) -> list[str]:
    """One line per file whose bytes differ or that only one run has."""
    a, b = digests(run_a), digests(run_b)
    lines = []
    for name in sorted(a.keys() | b.keys()):
        if name not in b:
            lines.append(f"only in {run_a}: {name}")
        elif name not in a:
            lines.append(f"only in {run_b}: {name}")
        elif a[name] != b[name]:
            lines.append(f"differs: {name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("run_dir", type=Path, help="run directory written by `cropyield pipeline`")
    parser.add_argument("other", type=Path, nargs="?", help="a second run directory to compare")
    args = parser.parse_args(argv)
    for run_dir in (args.run_dir, args.other):
        if run_dir is not None and not run_dir.is_dir():
            print(f"not a directory: {run_dir}", file=sys.stderr)
            return 2
    if args.other is None:
        for line in digest_lines(args.run_dir):
            print(line)
        return 0
    lines = compare(args.run_dir, args.other)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
