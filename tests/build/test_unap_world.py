"""The unap-hotspot, pamas and ecmac worlds: assembly, μNap evidence,
energy ordering against the CAM baseline, and determinism."""

import pytest

from repro.build import (
    InterfaceSpec,
    TrafficSpec,
    WorldBuilder,
    WorldSpec,
    ecmac_world,
    pamas_world,
    unap_hotspot_world,
    uniform_nodes,
)
from repro.core.outcome import VOLATILE_TIMING_FIELDS
from repro.exp import dumps_strict
from repro.mac import DcfStation, MicroNapPolicy, PsmStation


def _unap(**overrides):
    kwargs = dict(n_clients=3, duration_s=2.0, seed=0)
    kwargs.update(overrides)
    return unap_hotspot_world(**kwargs)


def _psm_spec(power_policy):
    return WorldSpec(
        delivery="psm",
        duration_s=2.0,
        seed=1,
        clients=uniform_nodes(2, [InterfaceSpec("wlan")], TrafficSpec()),
        power_policy=power_policy,
    )


class TestPolicyAssembly:
    @pytest.mark.parametrize(
        "policy, station_cls, nap",
        [
            (None, PsmStation, False),
            ("psm", PsmStation, False),
            ("cam", DcfStation, False),
            ("unap", DcfStation, True),
        ],
    )
    def test_each_policy_builds_its_stations(self, policy, station_cls, nap):
        stations = WorldBuilder(_psm_spec(policy)).build().stations
        assert [type(s) for s in stations] == [station_cls, station_cls]
        for station in stations:
            observer = station.power_policy
            if nap:
                assert type(observer) is MicroNapPolicy
                assert observer.station is station
            else:
                assert observer is None

    def test_psm_and_none_give_identical_records(self):
        def record(policy):
            summary = WorldBuilder(_psm_spec(policy)).run().summary_record()
            return dumps_strict(
                {k: v for k, v in summary.items() if k not in VOLATILE_TIMING_FIELDS}
            )

        assert record("psm") == record(None)


class TestUnapHotspot:
    def test_unknown_power_policy_rejected_by_spec(self):
        with pytest.raises(ValueError, match="power_policy must be one of"):
            WorldSpec(delivery="hotspot", power_policy="bogus")

    def test_preset_accepts_only_unap_or_cam(self):
        with pytest.raises(ValueError):
            unap_hotspot_world(power_policy="psm")

    def test_unap_naps_and_beats_cam_on_energy(self):
        unap = WorldBuilder(_unap()).run().summary_record()
        cam = WorldBuilder(_unap(power_policy="cam")).run().summary_record()
        # Same traffic delivered (μNap never defers the station's own
        # frames), QoS guard intact on both sides...
        assert unap["bytes_received"] == cam["bytes_received"] > 0
        assert unap["qos_maintained"] and cam["qos_maintained"]
        # ... while dozing through other stations' reservations saves
        # real WNIC energy.
        assert unap["wnic_power_w"] < cam["wnic_power_w"]
        assert unap["naps"] > 0
        assert unap["napped_s"] > 0.0
        # Nap evidence a PSM/CAM run cannot produce: sub-10ms doze dwells.
        assert unap["micro_doze_dwells"] > 0
        # The CAM record carries no nap extras at all.
        assert "naps" not in cam

    def test_labels_name_the_policy(self):
        unap = WorldBuilder(_unap()).run().summary_record()
        cam = WorldBuilder(_unap(power_policy="cam")).run().summary_record()
        assert unap["label"] == "unap-hotspot[unap]"
        assert cam["label"] == "unap-hotspot[cam]"

    def test_same_seed_is_deterministic(self):
        keys = ("bytes_received", "wnic_power_w", "naps", "micro_doze_dwells")
        first = WorldBuilder(_unap()).run().summary_record()
        second = WorldBuilder(_unap()).run().summary_record()
        assert {k: first[k] for k in keys} == {k: second[k] for k in keys}


class TestPamasWorld:
    def test_nodes_sleep_and_survive(self):
        spec = pamas_world(n_clients=4, duration_s=30.0, seed=0)
        record = WorldBuilder(spec).run().summary_record()
        assert record["label"] == "pamas"
        assert record["nodes_died"] == 0
        assert 0.0 < record["mean_availability"] < 1.0
        assert record["wnic_power_w"] > 0.0


class TestEcMacWorld:
    def test_coordinator_schedules_all_traffic(self):
        spec = ecmac_world(n_clients=2, duration_s=5.0, seed=0)
        record = WorldBuilder(spec).run().summary_record()
        assert record["label"] == "ec-mac"
        assert record["superframes"] > 0
        assert record["frames_scheduled"] > 0
        assert record["bytes_received"] > 0
        assert record["qos_maintained"]
