"""Regression error metrics and report emission.

All three metrics are reported as fractions (a perfect predictor scores 0,
a 10% average miss scores 0.1); ``cropyield report --percent`` shows them
multiplied by 100. RMSLE uses the natural logarithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeMismatchError


def _paired(y, y_pred):
    y = np.asarray(y, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y.shape != y_pred.shape or y.ndim != 1 or y.size < 1:
        raise ShapeMismatchError(
            f"metrics need equal-length 1-D vectors, got {y.shape} and {y_pred.shape}"
        )
    return y, y_pred


def mape(y, y_pred) -> float:
    """Mean absolute fractional error relative to the true value."""
    y, y_pred = _paired(y, y_pred)
    if np.any(y == 0.0):
        raise DomainError("MAPE undefined when any true value is zero")
    return float(np.mean(np.abs((y - y_pred) / y)))


def rmsle(y, y_pred) -> float:
    """Root mean squared difference of log(1 + value)."""
    y, y_pred = _paired(y, y_pred)
    if np.any(y <= -1.0) or np.any(y_pred <= -1.0):
        raise DomainError("RMSLE needs all values > -1")
    d = np.log1p(y) - np.log1p(y_pred)
    return float(np.sqrt(np.mean(d * d)))


def smape(y, y_pred) -> float:
    """Absolute error normalized by the mean magnitude of truth and prediction."""
    y, y_pred = _paired(y, y_pred)
    denom = (np.abs(y) + np.abs(y_pred)) / 2.0
    if np.any(denom == 0.0):
        raise DomainError("SMAPE undefined when a pair is (0, 0)")
    return float(np.mean(np.abs(y - y_pred) / denom))


METRICS = {"mape": mape, "rmsle": rmsle, "smape": smape}


@dataclass
class EvalReport:
    mape: float
    rmsle: float
    smape: float
    n: int
    baseline: dict  # metrics of the constant reference predictor
    per_group: dict = field(default_factory=dict)  # tag -> {metric: value, n: count}


def evaluate(samples, preds, baseline_constant: float) -> EvalReport:
    """Score the yield predictions ``preds`` of ``samples``, one per sample.

    Groups are the samples' season tags. The baseline scores the constant
    prediction ``baseline_constant`` (the train-split mean yield) on the same
    samples.
    """
    samples = list(samples)
    if not samples:
        raise DomainError("cannot evaluate an empty split")
    y = np.array([s.y for s in samples])
    preds = np.array(preds, dtype=np.float64)
    tags = [s.season_tag for s in samples]

    def all_metrics(yv, pv):
        return {name: fn(yv, pv) for name, fn in METRICS.items()}

    report = EvalReport(**all_metrics(y, preds), n=len(samples),
                        baseline=all_metrics(y, np.full_like(y, baseline_constant)))
    for tag in sorted(set(tags)):
        sel = [k for k, t in enumerate(tags) if t == tag]
        group = all_metrics(y[sel], preds[sel])
        group["n"] = len(sel)
        report.per_group[tag] = group
    return report


def write_report_table(report: EvalReport, path) -> None:
    """Delimited text table: metric, value, group, n."""
    lines = ["metric,value,group,n"]
    for name in ("mape", "rmsle", "smape"):
        lines.append(f"{name},{getattr(report, name):.12g},all,{report.n}")
    for tag, group in sorted(report.per_group.items()):
        for name in ("mape", "rmsle", "smape"):
            lines.append(f"{name},{group[name]:.12g},{tag},{group['n']}")
    for name in ("mape", "rmsle", "smape"):
        lines.append(f"baseline_{name},{report.baseline[name]:.12g},all,{report.n}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_kv(report: EvalReport, path) -> None:
    """Machine-readable key=value file; values always fractional."""
    lines = [f"n={report.n}"]
    for name in ("mape", "rmsle", "smape"):
        lines.append(f"{name}={getattr(report, name)!r}")
    for name in ("mape", "rmsle", "smape"):
        lines.append(f"baseline_{name}={report.baseline[name]!r}")
    for tag, group in sorted(report.per_group.items()):
        lines.append(f"group.{tag}.n={group['n']}")
        for name in ("mape", "rmsle", "smape"):
            lines.append(f"group.{tag}.{name}={group[name]!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_report_kv(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if not _:
                raise DomainError(f"malformed report line in {path}: {line!r}")
            out[key] = value
    return out
