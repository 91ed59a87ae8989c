#!/usr/bin/env python3
"""Print one `sha256  name` line per file of a run directory, sorted by name.

Two runs are byte-identical when their digests are:

    python3 scripts/artifact_digest.py runA > a.txt
    python3 scripts/artifact_digest.py runB > b.txt
    diff a.txt b.txt
"""

import argparse
import hashlib
import sys
from pathlib import Path


def digest_lines(run_dir: Path) -> list[str]:
    files = sorted((p for p in run_dir.iterdir() if p.is_file()), key=lambda p: p.name)
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}" for p in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("run_dir", type=Path, help="run directory written by `cropyield pipeline`")
    args = parser.parse_args(argv)
    if not args.run_dir.is_dir():
        print(f"not a directory: {args.run_dir}", file=sys.stderr)
        return 2
    for line in digest_lines(args.run_dir):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
