"""Cross-validation harness: parameter mapping, tolerance semantics and
one fast end-to-end sim-vs-model run."""

import dataclasses
import json

import pytest

from repro.analytic import PREDICTORS
from repro.analytic.crossval import (
    DEFAULT_METRICS,
    DEFAULT_TOLERANCE,
    SUITES,
    Residual,
    ToleranceContract,
    model_overrides,
    psm_crossval_spec,
    run_crossval,
    unap_crossval_spec,
)
from repro.exp import scenarios
from repro.exp.store import ResultStore


class TestModelOverrides:
    def test_maps_n_clients_to_n_stations(self):
        out = model_overrides(
            {"n_clients": 3, "offered_load_bps": 1e5, "listen_interval": 2},
            "psm-energy",
        )
        assert out == {
            "n_stations": 3,
            "offered_load_bps": 1e5,
            "listen_interval": 2,
        }

    def test_drops_bookkeeping_params(self):
        out = model_overrides({"n_clients": 1, "seed": 7, "obs": "x",
                               "label": "run", "platform": "p"},
                              "psm-energy")
        assert out == {"n_stations": 1}

    def test_unknown_param_raises(self):
        with pytest.raises(ValueError, match="no PsmParams counterpart"):
            model_overrides({"n_clients": 1, "mystery_knob": 3}, "psm-energy")

    def test_params_type_follows_the_predictor(self):
        point = {"n_clients": 2, "rts_threshold_bytes": 500}
        assert model_overrides(point, "unap-energy") == {
            "n_stations": 2, "rts_threshold_bytes": 500,
        }
        with pytest.raises(ValueError, match="no PsmParams counterpart"):
            model_overrides(point, "psm-energy")


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_every_default_point_translates_for_every_metric(self, name):
        suite = SUITES[name]
        for params in suite.build().points():
            for metric in suite.metrics:
                overrides = model_overrides(params, metric.predictor)
                PREDICTORS[metric.predictor].params_type(**overrides)


class TestToleranceContract:
    def test_relative_error_guards_small_denominators(self):
        contract = ToleranceContract(relative={"m": 0.1})
        assert contract.relative_error(sim=0.0, model=1e-12) == \
            pytest.approx(1e-12 / contract.min_denominator)

    def test_unlimited_metric_is_reported_but_never_judged(self):
        contract = ToleranceContract(relative={"m": 0.1})
        assert contract.limit_for("other") is None
        unjudged = Residual(metric="other", sim=1.0, model=99.0,
                            rel_err=98.0, limit=None)
        assert unjudged.ok

    def test_residual_ok_is_strict_at_the_limit(self):
        ok = Residual(metric="m", sim=100.0, model=109.9,
                      rel_err=0.099, limit=0.10)
        bad = Residual(metric="m", sim=100.0, model=111.0,
                       rel_err=0.11, limit=0.10)
        assert ok.ok and not bad.ok

    def test_default_contract_covers_both_metrics(self):
        assert DEFAULT_TOLERANCE.limit_for("throughput_bps") == 0.10
        assert DEFAULT_TOLERANCE.limit_for("wnic_power_w") == 0.10


class TestSpecBuilder:
    def test_default_grid_is_eight_points(self):
        spec = psm_crossval_spec()
        points = list(spec.points())
        assert len(points) == 8
        assert spec.seeds == [0, 1]

    def test_duration_derives_from_offered_load(self):
        spec = psm_crossval_spec(light_duration_s=30.0,
                                 saturated_duration_s=10.0)
        for point in spec.points():
            expected = 10.0 if point["offered_load_bps"] >= 1e6 else 30.0
            assert point["duration_s"] == expected


def tiny_spec():
    # One grid point, short duration: fast enough for unit tests while
    # still exercising the full sim → extract → predict → compare path.
    return psm_crossval_spec(
        name="crossval-tiny",
        n_stations=(1,),
        offered_load_bps=(128_000.0,),
        listen_interval=(1,),
        n_seeds=2,
        light_duration_s=5.0,
        saturated_duration_s=5.0,
    )


LOOSE = ToleranceContract(
    relative={"throughput_bps": 0.5, "wnic_power_w": 0.5}
)
IMPOSSIBLE = ToleranceContract(
    relative={"throughput_bps": 1e-6, "wnic_power_w": 1e-6}
)


class TestRunCrossval:
    def test_end_to_end_pass_and_payload(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        report = run_crossval(tiny_spec(), contract=LOOSE, store=store)
        assert report.ok
        assert len(report.points) == 1
        point = report.points[0]
        assert point.seeds == [0, 1]
        assert {r.metric for r in point.residuals} == {
            "throughput_bps", "wnic_power_w",
        }
        assert point.model_params["n_stations"] == 1
        payload = report.as_payload()
        assert payload["ok"] is True
        assert payload["contract"]["relative"]["throughput_bps"] == 0.5
        # Payload round-trips through strict JSON.
        json.dumps(payload)

    def test_predictions_persisted_and_resume_cached(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        first = run_crossval(tiny_spec(), contract=LOOSE, store=store)
        assert first.predictions_stored == 2
        assert first.campaign.executed == 2
        again = run_crossval(tiny_spec(), contract=LOOSE, store=store)
        assert again.campaign.executed == 0
        assert again.predictions_cached == 2
        assert again.points[0].residuals == first.points[0].residuals

    def test_impossible_tolerance_reports_violations(self):
        report = run_crossval(tiny_spec(), contract=IMPOSSIBLE)
        assert not report.ok
        assert report.violations()
        worst = report.worst()
        assert worst is not None and worst.rel_err > worst.limit

    def test_worst_residual_is_the_max(self):
        report = run_crossval(tiny_spec(), contract=LOOSE)
        worst = report.worst()
        everything = [r for p in report.points for r in p.residuals]
        assert worst.rel_err / worst.limit == max(
            r.rel_err / r.limit for r in everything
        )

    def test_table_rows_align_with_header(self):
        report = run_crossval(tiny_spec(), contract=LOOSE)
        header, rows = report.table_rows()
        assert len(rows) == 1
        assert all(len(row) == len(header) for row in rows)
        assert "ok" in header

    def test_untranslatable_grid_fails_before_any_scenario_call(
        self, monkeypatch
    ):
        calls = []

        def counting_scenario(**params):
            calls.append(params)
            raise RuntimeError("the grid should have been rejected first")

        entry = scenarios.scenario_entry("unap-hotspot")
        monkeypatch.setitem(
            scenarios._SCENARIOS, "unap-hotspot",
            dataclasses.replace(entry, fn=counting_scenario),
        )
        # The μNap grid carries rts_threshold_bytes, which PsmParams lacks.
        spec = unap_crossval_spec(duration_s=1.0, n_seeds=1)
        with pytest.raises(ValueError, match="'rts_threshold_bytes'"):
            run_crossval(spec, metrics=DEFAULT_METRICS)
        assert calls == []
