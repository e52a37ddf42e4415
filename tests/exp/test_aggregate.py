"""Seed-axis statistics, metrics merging and artifact rendering."""

import csv
import json
import math

import pytest

from repro.exp import (
    FieldStats,
    aggregate,
    dump_json,
    merge_metric_snapshots,
    summary_table,
    t_critical_95,
    write_csv,
)
from repro.exp.aggregation import flatten_numeric_fields
from repro.exp.runner import RunResult
from repro.exp.spec import RunSpec


def make_result(params, seed, record):
    frozen = tuple(sorted(params.items()))
    return RunResult(
        spec=RunSpec(scenario="s", params=frozen, seed=seed), record=record
    )


class TestFieldStats:
    def test_two_sample_stats_use_t_distribution(self):
        stats = FieldStats.of([1.0, 3.0])
        assert stats.mean == 2.0
        assert stats.stdev == math.sqrt(2.0)
        # df=1 → t=12.706; CI half-width = t * s / sqrt(n)
        assert stats.ci95 == 12.706 * math.sqrt(2.0) / math.sqrt(2.0)
        assert (stats.min, stats.max) == (1.0, 3.0)

    def test_single_sample_has_undefined_ci(self):
        # Regression: n=1 used to report ci95=0.0, which every artifact
        # rendered as "perfectly converged".  One sample has no spread
        # estimate — the interval is NaN (null in JSON, blank in CSV).
        stats = FieldStats.of([5.0])
        assert stats.stdev == 0.0
        assert math.isnan(stats.ci95)
        assert stats.render() == "5"

    def test_empty_sample_has_undefined_ci(self):
        stats = FieldStats.of([])
        assert stats.n == 0
        assert math.isnan(stats.ci95)

    def test_single_sample_ci_serialises_to_null(self):
        payload = {"stats": FieldStats.of([5.0]).as_dict()}
        decoded = json.loads(dump_json(payload))
        assert decoded["stats"]["ci95"] is None
        assert decoded["stats"]["mean"] == 5.0

    def test_render_includes_ci_for_replicated_points(self):
        assert "±" in FieldStats.of([1.0, 2.0]).render()

    def test_t_table(self):
        assert t_critical_95(1) == 12.706
        assert t_critical_95(30) == 2.042
        assert t_critical_95(200) == 1.96
        assert t_critical_95(0) == 0.0

    def test_t_table_bounds(self):
        # Monotone decreasing in df, always at least the normal 1.96,
        # and at most the df=1 extreme — the properties the CI math
        # relies on across every table entry and the >30 tail.
        values = [t_critical_95(df) for df in range(1, 60)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(1.96 <= v <= 12.706 for v in values)


class TestAggregate:
    def results(self):
        out = []
        for gain in (1, 2):
            for seed in (0, 1, 2):
                out.append(
                    make_result(
                        {"gain": gain},
                        seed,
                        {
                            "label": f"g{gain}",
                            "wnic_power_w": gain + seed * 0.1,
                            "qos_maintained": seed != 2 or gain != 2,
                        },
                    )
                )
        return out

    def test_one_summary_per_grid_point_in_order(self):
        summaries = aggregate(self.results())
        assert [s.params for s in summaries] == [{"gain": 1}, {"gain": 2}]
        assert summaries[0].seeds == [0, 1, 2]
        assert summaries[0].stats["wnic_power_w"].n == 3
        assert summaries[0].stats["wnic_power_w"].mean == pytest.approx(1.1)

    def test_qos_is_all_seeds(self):
        summaries = aggregate(self.results())
        assert summaries[0].qos_maintained is True
        assert summaries[1].qos_maintained is False

    def test_summary_table_lists_grid_and_fields(self):
        table = summary_table(
            aggregate(self.results()), ["gain"], fields=("wnic_power_w",)
        )
        assert "gain" in table and "WNIC power (W)" in table
        assert "seeds" in table  # replicated → seed count column
        assert "±" in table

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(
            str(path), aggregate(self.results()), ["gain"],
            fields=("wnic_power_w",),
        )
        rows = list(csv.reader(path.open()))
        assert rows[0] == [
            "gain", "n",
            "wnic_power_w_mean", "wnic_power_w_stdev", "wnic_power_w_ci95",
            "qos_maintained", "failed",
        ]
        assert len(rows) == 3
        assert float(rows[1][2]) == pytest.approx(1.1)

    def test_write_csv_blank_ci_for_single_seed(self, tmp_path):
        path = tmp_path / "single.csv"
        results = [
            make_result(
                {"gain": 1}, 0,
                {"label": "g1", "wnic_power_w": 1.0, "qos_maintained": True},
            )
        ]
        write_csv(str(path), aggregate(results), ["gain"],
                  fields=("wnic_power_w",))
        rows = list(csv.reader(path.open()))
        # mean and stdev are real numbers; the undefined CI is blank,
        # never a "nan" string a spreadsheet would choke on.
        assert rows[1][2] == "1.0"
        assert rows[1][4] == ""

    def test_dump_json_sorted_and_stable(self):
        payload = {"b": 1, "a": [1, 2]}
        assert dump_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


class TestDictFieldFlattening:
    def test_flatten_numeric_fields_recurses_with_dotted_names(self):
        out = {}
        flatten_numeric_fields(
            "cells",
            {"ap1": {"load": 0.5, "clients": 3}, "ap0": {"load": 0.25}},
            out,
        )
        assert out == {
            "cells.ap0.load": [0.25],
            "cells.ap1.load": [0.5],
            "cells.ap1.clients": [3.0],
        }

    def test_flatten_skips_non_numeric_leaves(self):
        out = {}
        flatten_numeric_fields(
            "x", {"name": "ap0", "ok": True, "log": [1, 2], "n": 2}, out
        )
        assert out == {"x.n": [2.0]}

    def test_aggregate_folds_dict_fields_per_cell(self):
        # Regression: per-cell breakdown dicts were silently dropped
        # from campaign aggregation; they must fold into dotted numeric
        # fields with ordinary across-seed statistics.
        results = [
            make_result(
                {"g": 1},
                seed,
                {
                    "label": "fleet",
                    "qos_maintained": True,
                    "cells": {
                        "ap0": {"bursts_served": 10 + seed, "clients": 3},
                        "ap1": {"bursts_served": 20 + seed, "clients": 5},
                    },
                },
            )
            for seed in (0, 1)
        ]
        (summary,) = aggregate(results)
        assert summary.stats["cells.ap0.bursts_served"].mean == 10.5
        assert summary.stats["cells.ap1.bursts_served"].mean == 20.5
        assert summary.stats["cells.ap0.clients"].n == 2

    def test_aggregate_ignores_non_numeric_dict_content(self):
        results = [
            make_result(
                {"g": 1},
                0,
                {
                    "label": "fleet",
                    "qos_maintained": True,
                    "cells": {"ap0": {"name": "ap0", "timeline": [1, 2]}},
                },
            )
        ]
        (summary,) = aggregate(results)
        assert not any(k.startswith("cells.") for k in summary.stats)


class TestMergeMetricSnapshots:
    def test_counters_sum(self):
        merged = merge_metric_snapshots(
            [{"trace.core.grant": 3.0}, {"trace.core.grant": 2.0}]
        )
        assert merged["trace.core.grant"] == 5.0

    def test_histograms_merge_exactly_except_quantiles(self):
        a = {"h": {"count": 2, "mean": 1.0, "min": 0.5, "max": 1.5, "p50": 1.0}}
        b = {"h": {"count": 6, "mean": 3.0, "min": 2.0, "max": 4.0, "p50": 3.0}}
        merged = merge_metric_snapshots([a, b])["h"]
        assert merged["count"] == 8
        assert merged["mean"] == (2 * 1.0 + 6 * 3.0) / 8
        assert (merged["min"], merged["max"]) == (0.5, 4.0)
        # Quantiles are count-weighted approximations.
        assert merged["p50"] == (2 * 1.0 + 6 * 3.0) / 8

    def test_empty_and_missing_snapshots_ignored(self):
        assert merge_metric_snapshots([]) == {}
        assert merge_metric_snapshots([{}, {"c": 1.0}]) == {"c": 1.0}

    def test_mixed_scalar_and_histogram_instruments_merge_independently(self):
        # A realistic registry snapshot mixes counters, gauges and
        # histogram dicts under different names; each kind must merge by
        # its own rule without bleeding into the others.
        a = {
            "trace.mac.beacon": 10.0,
            "net.cell.ap0.load": 0.4,
            "phy.state.dwell_s": {
                "count": 4, "mean": 2.0, "min": 1.0, "max": 3.0, "p90": 2.8,
            },
        }
        b = {
            "trace.mac.beacon": 5.0,
            "net.cell.ap0.load": 0.2,
            "phy.state.dwell_s": {
                "count": 1, "mean": 10.0, "min": 10.0, "max": 10.0,
                "p90": 10.0,
            },
            "core.grant.bytes": {"count": 2, "mean": 512.0, "min": 256.0,
                                 "max": 768.0},
        }
        merged = merge_metric_snapshots([a, b])
        assert merged["trace.mac.beacon"] == 15.0
        # Gauges sum too — the merge has no per-instrument metadata, so
        # scalar means are the caller's job; what matters is no mangling.
        assert merged["net.cell.ap0.load"] == pytest.approx(0.6)
        dwell = merged["phy.state.dwell_s"]
        assert dwell["count"] == 5
        assert dwell["mean"] == pytest.approx((4 * 2.0 + 1 * 10.0) / 5)
        assert (dwell["min"], dwell["max"]) == (1.0, 10.0)
        assert dwell["p90"] == pytest.approx((4 * 2.8 + 1 * 10.0) / 5)
        # A histogram present in only one snapshot survives unchanged.
        grant = merged["core.grant.bytes"]
        assert grant["count"] == 2 and grant["mean"] == 512.0

    def test_only_pN_keys_treated_as_quantiles(self):
        # Regression: a bare startswith("p") match swallowed any field
        # beginning with "p" into the count-weighted quantile average.
        a = {"h": {"count": 2, "mean": 1.0, "min": 1.0, "max": 1.0,
                   "p50": 1.0, "peak": 7.0}}
        b = {"h": {"count": 2, "mean": 3.0, "min": 3.0, "max": 3.0,
                   "p50": 3.0, "peak": 9.0}}
        merged = merge_metric_snapshots([a, b])["h"]
        assert merged["p50"] == 2.0  # weighted as a quantile
        assert "peak" not in merged  # not mangled into a fake quantile

    def test_all_zero_count_histograms_have_nan_min_max(self):
        # Regression: min/max of nothing is NaN (serialised as null), not
        # the ±inf seeds and not a fake 0.0 measurement.
        empty = {"h": {"count": 0, "mean": 0.0, "p50": 0.0}}
        merged = merge_metric_snapshots([empty, empty])["h"]
        assert merged["count"] == 0
        assert math.isnan(merged["min"])
        assert math.isnan(merged["max"])
        assert merged["mean"] == 0.0
        assert merged["p50"] == 0.0
        assert not any(math.isinf(v) for v in merged.values())
