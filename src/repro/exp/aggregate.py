"""Aggregation: per-grid-point statistics across seeds, tables, artifacts.

The runner hands back one record per (grid point, seed); this module
folds the seed axis into mean/stdev/95 % confidence intervals per
numeric field, merges per-run metrics snapshots, and renders the result
as a fixed-width table, a JSON payload or a CSV file.  Everything here
is deterministic: grouping preserves the spec's expansion order and the
JSON encoder sorts keys, so identical campaigns aggregate to identical
bytes (the property the CI resume check diffs on).
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.exp.jsonio import dumps_strict
from repro.exp.runner import CampaignReport, RunResult
from repro.exp.spec import canonical_json, canonical_params
from repro.metrics.report import format_table

#: Two-sided 95 % Student-t critical values by degrees of freedom; the
#: normal 1.96 approximation takes over past 30.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_critical_95(df: int) -> float:
    """95 % two-sided Student-t critical value for ``df`` degrees."""
    if df < 1:
        return 0.0
    return _T95.get(df, 1.96)


@dataclass
class FieldStats:
    """Mean/stdev/CI of one numeric record field across seeds."""

    n: int
    mean: float
    stdev: float
    ci95: float
    min: float
    max: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "FieldStats":
        n = len(values)
        if n == 0:
            # No samples: extrema are undefined, not zero — like ci95,
            # NaN survives to JSON as null (dumps_strict) and to CSV as
            # a blank cell instead of posing as a measurement.
            nan = float("nan")
            return cls(0, 0.0, 0.0, nan, nan, nan)
        mean = sum(values) / n
        if n > 1:
            variance = sum((v - mean) ** 2 for v in values) / (n - 1)
            stdev = math.sqrt(variance)
            ci95 = t_critical_95(n - 1) * stdev / math.sqrt(n)
        else:
            # One sample has no spread *estimate*: the interval is
            # undefined, not zero.  A literal 0.0 here used to read as
            # "perfectly converged" in every artifact; NaN survives to
            # JSON as null (dumps_strict) and to CSV as a blank cell.
            stdev = 0.0
            ci95 = float("nan")
        return cls(n, mean, stdev, ci95, min(values), max(values))

    def as_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "mean": self.mean,
            "stdev": self.stdev,
            "ci95": self.ci95,
            "min": self.min,
            "max": self.max,
        }

    def render(self) -> str:
        """``mean`` alone for one seed, ``mean ±ci`` otherwise."""
        if self.n <= 1:
            return f"{self.mean:.4g}"
        return f"{self.mean:.4g} ±{self.ci95:.2g}"


#: Quantile estimate keys in a histogram snapshot: exactly ``p<digits>``
#: (``p50``, ``p99``...).  A bare prefix match would swallow any future
#: field that merely starts with "p" (``peak``, ``pending``...) into the
#: count-weighted quantile average.
_QUANTILE_KEY = re.compile(r"^p\d+$")


def merge_metric_snapshots(
    snapshots: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Merge per-run registry snapshots into one campaign-level view.

    Scalar instruments (counters/gauges) sum across runs; histogram
    snapshots merge exactly for count/sum-derived mean/min/max, while
    quantile estimates are count-weighted averages (an approximation —
    P² markers cannot be merged exactly).
    """
    merged: Dict[str, Any] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in snapshot.items():
            if isinstance(value, dict):
                slot = merged.setdefault(
                    name,
                    {"count": 0, "_sum": 0.0, "min": math.inf, "max": -math.inf,
                     "_weighted": {}},
                )
                count = value.get("count", 0)
                slot["count"] += count
                slot["_sum"] += value.get("mean", 0.0) * count
                if count:
                    slot["min"] = min(slot["min"], value.get("min", math.inf))
                    slot["max"] = max(slot["max"], value.get("max", -math.inf))
                for key, estimate in value.items():
                    if _QUANTILE_KEY.match(key):
                        bucket = slot["_weighted"].setdefault(key, [0.0, 0])
                        bucket[0] += estimate * count
                        bucket[1] += count
            else:
                merged[name] = merged.get(name, 0.0) + value
    for name, value in merged.items():
        if isinstance(value, dict):
            count = value["count"]
            value["mean"] = value.pop("_sum") / count if count else 0.0
            if not count:
                # Nothing was sampled: don't leak the ±inf seeds, but
                # don't report 0.0 as if it were an observed extremum
                # either — NaN serialises to null via dumps_strict.
                value["min"] = math.nan
                value["max"] = math.nan
            for key, (weighted, total) in value.pop("_weighted").items():
                value[key] = weighted / total if total else 0.0
    return merged


def flatten_numeric_fields(
    prefix: str, value: Dict[str, Any], out: Dict[str, List[float]]
) -> None:
    """Flatten a nested dict field into dotted numeric paths.

    ``{"cells": {"ap0": {"bursts": 3}}}`` contributes a ``cells.ap0.bursts``
    sample — how per-cell (or any structured) breakdowns a scenario
    reports survive seed aggregation instead of being silently dropped.
    Booleans and non-numeric leaves are skipped; list-valued leaves
    (e.g. a handoff timeline) stay per-run detail and are not averaged.
    """
    for key in sorted(value):
        item = value[key]
        name = f"{prefix}.{key}"
        if isinstance(item, bool):
            continue
        if isinstance(item, (int, float)):
            out.setdefault(name, []).append(float(item))
        elif isinstance(item, dict):
            flatten_numeric_fields(name, item, out)


@dataclass
class GridPointSummary:
    """One grid point folded across its seeds."""

    params: Dict[str, Any]
    seeds: List[int]
    stats: Dict[str, FieldStats] = field(default_factory=dict)
    qos_maintained: bool = True
    label: str = ""
    metrics: Optional[Dict[str, Any]] = None
    #: Runs at this grid point that ended in an error envelope; their
    #: seeds are excluded from ``seeds``/``stats``.
    failed: int = 0

    @property
    def n(self) -> int:
        return len(self.seeds)

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "params": self.params,
            "seeds": self.seeds,
            "qos_maintained": self.qos_maintained,
            "failed": self.failed,
            "stats": {name: s.as_dict() for name, s in self.stats.items()},
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload


def aggregate(results: Sequence[RunResult]) -> List[GridPointSummary]:
    """Fold the seed axis: one summary per grid point, in run order.

    Failed runs (non-None ``error``) are excluded from the statistics
    and counted per grid point instead; a point whose every run failed
    reports ``qos_maintained=False`` — nothing demonstrated QoS there.
    """
    groups: Dict[str, List[RunResult]] = {}
    # One encoding per params tuple (a grid point's runs share theirs).
    point_keys: Dict[int, str] = {}
    for result in results:
        params = result.spec.params
        point = point_keys.get(id(params))
        if point is None:
            point = point_keys[id(params)] = canonical_json(dict(params))
        groups.setdefault(point, []).append(result)
    summaries: List[GridPointSummary] = []
    for grouped in groups.values():
        first = grouped[0]
        healthy = [r for r in grouped if r.error is None]
        failed = len(grouped) - len(healthy)
        numeric: Dict[str, List[float]] = {}
        qos = bool(healthy)
        snapshots: List[Dict[str, Any]] = []
        for result in healthy:
            for name, value in result.record.items():
                if isinstance(value, bool):
                    if name == "qos_maintained":
                        qos = qos and value
                elif isinstance(value, (int, float)):
                    numeric.setdefault(name, []).append(float(value))
                elif name == "metrics" and isinstance(value, dict):
                    snapshots.append(value)
                elif isinstance(value, dict):
                    # Structured breakdowns (e.g. per-cell fleet stats):
                    # flatten to dotted numeric fields so they aggregate
                    # across seeds like any scalar.
                    flatten_numeric_fields(name, value, numeric)
        label = str(healthy[0].record.get("label", "")) if healthy else ""
        summaries.append(
            GridPointSummary(
                params=dict(first.params),
                seeds=[r.seed for r in healthy],
                stats={n: FieldStats.of(v) for n, v in numeric.items()},
                qos_maintained=qos,
                label=label,
                metrics=merge_metric_snapshots(snapshots) if snapshots else None,
                failed=failed,
            )
        )
    return summaries


DEFAULT_FIELDS = ("wnic_power_w", "device_power_w")

_FIELD_HEADERS = {
    "wnic_power_w": "WNIC power (W)",
    "device_power_w": "device power (W)",
    "bursts": "bursts",
    "bytes_received": "bytes",
    "switchovers": "switchovers",
}


def summary_rows(
    summaries: Sequence[GridPointSummary],
    grid_keys: Sequence[str],
    fields: Sequence[str] = DEFAULT_FIELDS,
) -> tuple[List[str], List[List[object]]]:
    """Headers + one row per grid point (mean ±CI per field)."""
    headers = [*grid_keys]
    show_seeds = any(s.n > 1 for s in summaries)
    show_failed = any(s.failed for s in summaries)
    if show_seeds:
        headers.append("seeds")
    for name in fields:
        headers.append(_FIELD_HEADERS.get(name, name))
    headers.append("QoS")
    if show_failed:
        headers.append("failed")
    rows: List[List[object]] = []
    for summary in summaries:
        row: List[object] = [summary.params.get(key, "") for key in grid_keys]
        if show_seeds:
            row.append(summary.n)
        for name in fields:
            stats = summary.stats.get(name)
            row.append(stats.render() if stats is not None else "-")
        row.append(summary.qos_maintained)
        if show_failed:
            row.append(summary.failed)
        rows.append(row)
    return headers, rows


def summary_table(
    summaries: Sequence[GridPointSummary],
    grid_keys: Sequence[str],
    fields: Sequence[str] = DEFAULT_FIELDS,
    title: Optional[str] = None,
) -> str:
    """Fixed-width table: one row per grid point, mean ±CI per field."""
    headers, rows = summary_rows(summaries, grid_keys, fields)
    return format_table(headers, rows, title=title)


def campaign_payload(
    report: CampaignReport,
    summaries: Optional[Sequence[GridPointSummary]] = None,
) -> Dict[str, Any]:
    """JSON-ready artifact: spec, version and aggregated grid points.

    Cache bookkeeping (hit/executed counts) is deliberately excluded so
    a resumed campaign serialises byte-identically to the original.
    """
    if summaries is None:
        summaries = aggregate(report.results)
    return {
        "campaign": report.spec.describe(),
        "version": report.version,
        "points": [s.as_dict() for s in summaries],
        # Per-run failure attribution (empty when everything passed).
        # Envelopes are deterministic — same code, same failure, same
        # bytes — so a resumed campaign with the same still-failing run
        # serialises identically to the original.
        "failed_runs": [
            {
                "scenario": r.spec.scenario,
                "params": canonical_params(r.spec.kwargs),
                "seed": r.spec.seed,
                "error": r.error,
            }
            for r in report.results
            if r.error is not None
        ],
    }


def dump_json(payload: Dict[str, Any], nonfinite: str = "sanitize") -> str:
    """Strict RFC 8259 serialisation of a campaign artifact.

    Non-finite floats become ``null`` by default (``nonfinite="raise"``
    refuses instead); ``json.dumps``'s ``NaN``/``Infinity`` literals
    would make the artifact unreadable to strict parsers.
    """
    return dumps_strict(payload, nonfinite=nonfinite, indent=2, sort_keys=True)


def write_csv(
    path: str,
    summaries: Sequence[GridPointSummary],
    grid_keys: Sequence[str],
    fields: Sequence[str] = DEFAULT_FIELDS,
) -> None:
    """One CSV row per grid point: params, n, then mean/stdev/ci per field."""
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream)
        header = [*grid_keys, "n"]
        for name in fields:
            header += [f"{name}_mean", f"{name}_stdev", f"{name}_ci95"]
        header += ["qos_maintained", "failed"]
        writer.writerow(header)
        for summary in summaries:
            row: List[object] = [summary.params.get(k, "") for k in grid_keys]
            row.append(summary.n)
            for name in fields:
                stats = summary.stats.get(name)
                if stats is None:
                    row += ["", "", ""]
                else:
                    ci95 = "" if math.isnan(stats.ci95) else stats.ci95
                    row += [stats.mean, stats.stdev, ci95]
            row += [summary.qos_maintained, summary.failed]
            writer.writerow(row)
