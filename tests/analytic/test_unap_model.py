"""The unap-energy predictor and its cross-validation suite."""

import pytest

from repro.analytic import PREDICTORS, UnapParams, unap_station_energy
from repro.analytic.crossval import (
    UNAP_METRICS,
    model_overrides,
    run_crossval,
    unap_crossval_spec,
)
from repro.analytic.surrogate import refine_campaign


class TestUnapParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            UnapParams(n_stations=0)
        with pytest.raises(ValueError, match="power_policy"):
            UnapParams(power_policy="psm")
        with pytest.raises(ValueError, match="RTS/CTS"):
            UnapParams(packet_bytes=100, rts_threshold_bytes=500)

    def test_registered_predictor(self):
        entry = PREDICTORS["unap-energy"]
        assert entry.params_type is UnapParams
        assert entry.fn is unap_station_energy
        record = entry.evaluate({"n_stations": 2})
        assert record["predictor"] == "unap-energy"
        assert record["wnic_power_w"] > 0

    def test_grid_point_translates_without_residue(self):
        out = model_overrides(
            {
                "n_clients": 4,
                "power_policy": "unap",
                "offered_load_bps": 256e3,
                "packet_bytes": 1000,
                "rts_threshold_bytes": 500,
                "duration_s": 10.0,
                "seed": 0,
            },
            "unap-energy",
        )
        assert out["n_stations"] == 4
        assert "seed" not in out
        UnapParams(**out)  # every key lands on a real field


class TestUnapEnergyModel:
    def test_unap_saves_energy_over_cam(self):
        unap = unap_station_energy(UnapParams(power_policy="unap"))
        cam = unap_station_energy(UnapParams(power_policy="cam"))
        assert unap.wnic_power_w < cam.wnic_power_w
        assert unap.duty_cycle < 1.0 == cam.duty_cycle

    def test_saving_grows_with_overheard_traffic(self):
        powers = [
            unap_station_energy(UnapParams(n_stations=n)).wnic_power_w
            for n in (1, 2, 4, 8)
        ]
        cams = [
            unap_station_energy(
                UnapParams(n_stations=n, power_policy="cam")
            ).wnic_power_w
            for n in (1, 2, 4, 8)
        ]
        savings = [c - u for c, u in zip(cams, powers)]
        assert savings == sorted(savings)
        assert savings[0] == pytest.approx(0.0)  # nothing to overhear alone

    def test_breakdown_sums_to_total(self):
        for policy in ("unap", "cam"):
            prediction = unap_station_energy(UnapParams(power_policy=policy))
            assert sum(prediction.breakdown_w.values()) == pytest.approx(
                prediction.wnic_power_w
            )

    def test_idle_floor_with_no_traffic(self):
        prediction = unap_station_energy(
            UnapParams(n_stations=1, offered_load_bps=0.0)
        )
        # A lone silent station: idle draw plus the beacon rx share.
        assert prediction.wnic_power_w == pytest.approx(
            prediction.breakdown_w["idle"] + prediction.breakdown_w["rx_delta"]
        )

    def test_saturation_flagged(self):
        assert unap_station_energy(
            UnapParams(n_stations=8, offered_load_bps=4e6)
        ).saturated


class TestUnapCrossval:
    def test_spec_sweeps_policy_axis(self):
        spec = unap_crossval_spec()
        points = list(spec.points())
        assert len(points) == 2
        assert {p["power_policy"] for p in points} == {"unap", "cam"}
        assert spec.scenario == "unap-hotspot"

    def test_end_to_end_within_default_contract(self):
        # Short runs keep the test fast; the residual margin is ~15x, so
        # 3 s of simulated time clears the 10% gate comfortably.
        spec = unap_crossval_spec(
            name="unap-crossval-tiny", duration_s=3.0, n_seeds=1
        )
        report = run_crossval(spec, metrics=UNAP_METRICS)
        assert report.ok
        assert len(report.points) == 2
        for point in report.points:
            (residual,) = point.residuals
            assert residual.metric == "wnic_power_w"
            assert residual.limit == 0.10
            assert residual.rel_err < 0.10

    def test_surrogate_screens_the_unap_grid(self):
        refined = refine_campaign(
            unap_crossval_spec(), predictor="unap-energy",
            metric="wnic_power_w", fraction=0.5,
        )
        assert len(refined.spec.points()) == 1
        assert len(refined.scored) == 2
