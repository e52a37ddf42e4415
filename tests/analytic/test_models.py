"""Closed-form predictor sanity: edge cases, bounds and monotonicity."""

import math
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.analytic import PREDICTORS, PsmParams, TcpParams, UnapParams
from repro.analytic.models import (
    beacon_overhead_frac,
    bianchi_fixed_point,
    predict,
    psm_saturation_throughput,
    psm_station_energy,
    psm_wakeup_duty_cycle,
    tcp_station_energy,
)
from repro.mac.frames import Dot11Timing


class TestBianchi:
    def test_single_station_closed_form(self):
        # n=1 never collides: tau = 2/(W+1) with W = cw_min+1 = 32.
        tau, p = bianchi_fixed_point(1, 31, 1023)
        assert tau == pytest.approx(2.0 / 33.0)
        assert p == 0.0

    def test_collision_probability_grows_with_n(self):
        ps = [bianchi_fixed_point(n, 31, 1023)[1] for n in (2, 5, 10, 50)]
        assert all(a < b for a, b in zip(ps, ps[1:]))
        assert all(0.0 < p < 1.0 for p in ps[1:] + [ps[0]])

    def test_fixed_point_is_consistent(self):
        tau, p = bianchi_fixed_point(8, 31, 1023)
        assert p == pytest.approx(1.0 - (1.0 - tau) ** 7, abs=1e-6)


class TestThroughputEdges:
    def test_zero_offered_load(self):
        pred = psm_saturation_throughput(PsmParams(offered_load_bps=0.0))
        assert pred.throughput_bps == 0.0
        assert not pred.saturated
        assert pred.capacity_bps > 0.0

    def test_saturation_boundary_flips_exactly_at_capacity(self):
        base = PsmParams(n_stations=1)
        capacity = psm_saturation_throughput(base).capacity_bps
        below = PsmParams(offered_load_bps=capacity * 0.999)
        above = PsmParams(offered_load_bps=capacity * 1.001)
        assert not psm_saturation_throughput(below).saturated
        assert psm_saturation_throughput(above).saturated

    def test_throughput_never_exceeds_offered_or_capacity(self):
        for offered in (1e3, 1e5, 1e6, 5e6, 2e7):
            pred = psm_saturation_throughput(
                PsmParams(offered_load_bps=offered)
            )
            assert pred.throughput_bps <= offered + 1e-9
            assert pred.throughput_bps <= pred.capacity_bps + 1e-9

    def test_uplink_capacity_drops_with_contention(self):
        # Aggregate Bianchi capacity peaks near n=2 (a second station
        # fills the first one's backoff idle); past that, collision
        # losses dominate and capacity falls monotonically.
        caps = [
            psm_saturation_throughput(
                PsmParams(direction="uplink", n_stations=n,
                          offered_load_bps=1e7)
            ).capacity_bps
            for n in (2, 5, 20, 50)
        ]
        assert all(a > b for a, b in zip(caps, caps[1:]))

    def test_beacon_overhead_grows_with_tim(self):
        t = Dot11Timing()
        assert beacon_overhead_frac(t, 10.0) > beacon_overhead_frac(t, 0.0)
        assert 0.0 < beacon_overhead_frac(t, 0.0) < 0.05


class TestEnergyEdges:
    def test_zero_offered_load_is_doze_dominated(self):
        pred = psm_station_energy(PsmParams(offered_load_bps=0.0))
        p = PsmParams().power
        # No traffic: power sits near doze plus the per-beacon wakeup.
        assert p.sleep_w < pred.wnic_power_w < p.idle_w / 2.0
        assert pred.duty_cycle < 0.2

    def test_energy_monotone_in_offered_load(self):
        loads = (0.0, 32e3, 128e3, 512e3, 2e6)
        powers = [
            psm_station_energy(PsmParams(offered_load_bps=load)).wnic_power_w
            for load in loads
        ]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_listen_interval_reduces_light_load_power(self):
        light = {"offered_load_bps": 16_000.0}
        p1 = psm_station_energy(PsmParams(listen_interval=1, **light))
        p4 = psm_station_energy(PsmParams(listen_interval=4, **light))
        assert p4.wnic_power_w < p1.wnic_power_w
        assert p4.duty_cycle < p1.duty_cycle

    def test_energy_monotone_in_tx_power(self):
        for direction in ("downlink", "uplink"):
            base = PsmParams(direction=direction, offered_load_bps=512e3)
            powers = [
                psm_station_energy(
                    replace(base, power=replace(base.power, tx_w=tx))
                ).wnic_power_w
                for tx in (1.0, 1.4, 2.0, 3.5)
            ]
            assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_breakdown_sums_to_total(self):
        for params in (
            PsmParams(offered_load_bps=128e3),
            PsmParams(offered_load_bps=6e6, n_stations=2),
            PsmParams(direction="uplink", offered_load_bps=6e6),
        ):
            pred = psm_station_energy(params)
            assert sum(pred.breakdown_w.values()) == pytest.approx(
                pred.wnic_power_w, rel=1e-9
            )

    def test_uplink_station_never_dozes(self):
        pred = psm_station_energy(
            PsmParams(direction="uplink", offered_load_bps=64e3)
        )
        assert pred.duty_cycle == 1.0
        assert pred.breakdown_w["sleep"] == 0.0
        assert pred.wnic_power_w > PsmParams().power.idle_w


class TestDutyCycle:
    def test_listen_interval_stretches_the_cycle(self):
        light = {"offered_load_bps": 16_000.0}
        d1 = psm_wakeup_duty_cycle(PsmParams(listen_interval=1, **light))
        d3 = psm_wakeup_duty_cycle(PsmParams(listen_interval=3, **light))
        assert d3.cycle_s == pytest.approx(3 * d1.cycle_s)
        assert d3.wakeups_per_s == pytest.approx(d1.wakeups_per_s / 3)
        assert d3.duty_cycle < d1.duty_cycle

    def test_saturated_station_stays_awake(self):
        pred = psm_wakeup_duty_cycle(PsmParams(offered_load_bps=1e7))
        assert pred.duty_cycle == 1.0
        assert pred.wakeups_per_s == 0.0

    def test_duty_cycle_bounded(self):
        for load in (0.0, 64e3, 256e3, 1e6):
            pred = psm_wakeup_duty_cycle(PsmParams(offered_load_bps=load))
            assert 0.0 < pred.duty_cycle <= 1.0


class TestTcpModel:
    def test_delayed_acks_raise_goodput(self):
        every = tcp_station_energy(TcpParams(delayed_ack_ratio=1))
        delayed = tcp_station_energy(TcpParams(delayed_ack_ratio=2))
        assert delayed.throughput_bps > every.throughput_bps

    def test_uplink_transmits_more_than_downlink(self):
        up = tcp_station_energy(TcpParams(direction="uplink"))
        down = tcp_station_energy(TcpParams(direction="downlink"))
        assert up.tx_utilisation > down.tx_utilisation
        assert up.rx_utilisation < down.rx_utilisation

    def test_utilisations_are_fractions(self):
        pred = tcp_station_energy(TcpParams())
        assert 0.0 < pred.tx_utilisation < 1.0
        assert 0.0 < pred.rx_utilisation < 1.0
        assert sum(pred.breakdown_w.values()) == pytest.approx(
            pred.wnic_power_w
        )


class TestRegistry:
    def test_all_predictors_evaluate_at_defaults(self):
        for name, entry in PREDICTORS.items():
            record = entry.evaluate({})
            assert record["predictor"] == name
            assert isinstance(record["params"], dict)
            assert all(
                not (isinstance(v, float) and math.isnan(v))
                for v in record.values()
                if isinstance(v, float)
            )

    def test_predict_maps_overrides(self):
        record = predict("psm-throughput", {"n_stations": 2,
                                            "offered_load_bps": 6e6})
        assert record["params"]["n_stations"] == 2
        assert record["saturated"] is True

    def test_predict_unknown_name(self):
        with pytest.raises(ValueError, match="predictor must be one of"):
            predict("nope")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -5.0])
    @pytest.mark.parametrize(
        "params_type, field",
        [
            (PsmParams, "n_stations"),
            (PsmParams, "packet_bytes"),
            (PsmParams, "rate_bps"),
            (PsmParams, "offered_load_bps"),
            (PsmParams, "listen_interval"),
            (PsmParams, "duration_s"),
            (TcpParams, "n_stations"),
            (TcpParams, "segment_bytes"),
            (TcpParams, "rate_bps"),
            (TcpParams, "delayed_ack_ratio"),
            (UnapParams, "n_stations"),
            (UnapParams, "packet_bytes"),
            (UnapParams, "rate_bps"),
            (UnapParams, "offered_load_bps"),
            (UnapParams, "duration_s"),
        ],
    )
    def test_non_finite_or_negative_rejected(self, params_type, field, value):
        with pytest.raises(ValueError, match=field):
            params_type(**{field: value})

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "-5"])
    def test_cli_rejects_non_finite_setting(self, value, capsys):
        status = main(
            ["analytic", "psm-energy", "--set", f"n_stations={value}", "--json"]
        )
        out, err = capsys.readouterr()
        assert (status, out) == (2, "")
        assert "PsmParams.n_stations must be an integer >= 1" in err

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PsmParams(n_stations=0)
        with pytest.raises(ValueError):
            PsmParams(direction="sideways")
        with pytest.raises(ValueError):
            PsmParams(listen_interval=0)
        with pytest.raises(ValueError):
            TcpParams(delayed_ack_ratio=0)
