"""Command-line entry points: synth, pipeline, report.

Exit codes: 0 success, 2 usage or configuration error, 3 data error
(missing or unreadable files and any other OS error, malformed formats,
domain violations, missing stage prerequisites, any other package error),
4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .attention import ATTENTION_MODES, CONV_MODES
from .config import load_config
from .eo import FEATURE_SELECTORS
from .errors import ConfigError, CropYieldError, DomainError, NumericalError
from .pipeline import STAGES, format_table, merge_reports, run_pipeline


# command-line flags that set the config key of their own (argparse dest) name
_OVERRIDES = ("seed", "source", "n_plots", "t_steps", "height", "width",
              "attention_mode", "conv_mode", "feature_selector")


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")


def _load_config(args):
    """Defaults, then ``--config``, then the command's override flags."""
    return load_config(args.config, {key: getattr(args, key) for key in _OVERRIDES
                                     if getattr(args, key, None) is not None})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cropyield",
                                     description="synthetic multi-spectral yield prediction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate and save a synthetic dataset")
    p_synth.add_argument("--source", required=True, choices=["S1", "S2", "L8"])
    p_synth.add_argument("--plots", dest="n_plots", metavar="PLOTS", required=True, type=int)
    p_synth.add_argument("--t-steps", type=int, default=None)
    p_synth.add_argument("--height", type=int, default=None)
    p_synth.add_argument("--width", type=int, default=None)
    p_synth.add_argument("--out", type=Path, default=Path("dataset.mtms"))
    _add_config_flags(p_synth)

    p_pipe = sub.add_parser("pipeline", help="run the pipeline on a dataset file")
    p_pipe.add_argument("--data", required=True, type=Path, help="dataset file from synth")
    p_pipe.add_argument("--out", required=True, type=Path, help="run directory")
    p_pipe.add_argument("--stage", choices=list(STAGES), default=None,
                        help="run exactly this stage, resuming from prior artifacts")
    _add_config_flags(p_pipe)
    p_pipe.add_argument("--attention-mode", default=None, help=" | ".join(ATTENTION_MODES))
    p_pipe.add_argument("--conv-mode", default=None, help=" | ".join(CONV_MODES))
    p_pipe.add_argument("--feature-selector", default=None, help=" | ".join(FEATURE_SELECTORS))

    p_rep = sub.add_parser("report", help="merge run reports into one comparison table")
    p_rep.add_argument("run_dirs", nargs="*", type=Path)
    p_rep.add_argument("--out", type=Path, default=None, help="also write the table here")
    p_rep.add_argument("--percent", action="store_true", help="show metrics as percentages")
    return parser


def cmd_synth(args) -> int:
    from . import synthdata as sd

    cfg = _load_config(args)
    ds = sd.generate_dataset(sd.BandSpec(cfg.source), cfg.n_plots, cfg.t_steps,
                             cfg.height, cfg.width, cfg.seed)
    sd.save_dataset(ds, args.out)
    print(f"wrote {len(ds.samples)} samples ({cfg.source}, C={ds.band_spec.channels}) to {args.out}")
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    if not args.data.exists():
        raise DomainError(f"dataset file not found: {args.data}")
    run_dir = run_pipeline(cfg, args.data, args.out, stage=args.stage)
    print(f"run artifacts in {run_dir}")
    return 0


def cmd_report(args) -> int:
    if not args.run_dirs:
        print("report: at least one run directory is required", file=sys.stderr)
        return 2
    rows, skipped = merge_reports(args.run_dirs, percent=args.percent)
    for path in skipped:
        print(f"warning: skipped malformed or missing report in {path}", file=sys.stderr)
    if not rows:
        raise DomainError("no readable reports among the given run directories")
    table = format_table(rows)
    sys.stdout.write(table)
    print(f"runs={len(rows)} skipped={len(skipped)}", file=sys.stderr)
    if args.out is not None:
        Path(args.out).write_text(table)
    return 0


_COMMANDS = {"synth": cmd_synth, "pipeline": cmd_pipeline, "report": cmd_report}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # typed checks catch every non-finite value; numpy's own warnings stay off stderr
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4
    except (CropYieldError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
