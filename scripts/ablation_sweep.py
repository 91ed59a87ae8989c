#!/usr/bin/env python3
"""Run the attention/convolution and feature-selector ablation sweeps.

Each variant gets its own subdirectory of --out-root, and each distinct
config runs the full pipeline once: a variant that shares another's config
gets a copy of that run. The per-axis comparison tables land next to them. Use --fast for a small
configuration that finishes in a couple of minutes. A variant whose
directory holds a finished run of the same config and dataset is reused; one
made under another config or dataset exits 2, naming the keys that differ,
before anything is written into --out-root. A dataset synthesized for the
sweep moves into --out-root once the sweep has run.
"""

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

from cropyield.cli import main as cli_main
from cropyield.config import load_config
from cropyield.errors import ConfigError
from cropyield.pipeline import run_ablation_sweep

FAST_OVERRIDES = {
    "n_plots": 20, "t_steps": 4, "height": 8, "width": 8,
    "pretrain_epochs": 2, "denoiser_epochs": 2, "eo_iters": 20,
    "diff_steps": 6, "beta_end": 0.5,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", type=Path, default=None,
                        help="dataset file; synthesized when omitted")
    parser.add_argument("--out-root", type=Path, default=Path("/tmp/cropyield-ablation"))
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--fast", action="store_true", help="small desk-scale sweep")
    args = parser.parse_args(argv)

    overrides = dict(FAST_OVERRIDES) if args.fast else {}
    overrides["seed"] = args.seed
    cfg = load_config(args.config, overrides)

    try:
        with tempfile.TemporaryDirectory() as tmp:
            data = args.data
            if data is None:  # staged, and moved into --out-root once the sweep has run
                data = Path(tmp) / "dataset.mtms"
                rc = cli_main(["synth", "--source", cfg.source, "--plots", str(cfg.n_plots),
                               "--t-steps", str(cfg.t_steps), "--height", str(cfg.height),
                               "--width", str(cfg.width), "--seed", str(cfg.seed),
                               "--out", str(data)])
                if rc:
                    return rc
            tables = run_ablation_sweep(cfg, data, args.out_root)
            if args.data is None:
                shutil.move(data, args.out_root / "dataset.mtms")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    for axis, path in tables.items():
        print(f"== {axis} sweep ==")
        print(path.read_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
