"""WorldBuilder assembly: structure, determinism, custom worlds."""

import pytest

from repro.build import (
    InterfaceSpec,
    TrafficSpec,
    WorldBuilder,
    WorldSpec,
    faulty_hotspot_world,
    hotspot_world,
    psm_baseline_world,
    fleet_hotspot_world,
    uniform_nodes,
)
from repro.core.outcome import VOLATILE_TIMING_FIELDS
from repro.exp import dumps_strict, get_scenario
from repro.faults import FaultPlan


def _pinned(result):
    """The deterministic part of a summary record, serialised strictly."""
    record = {
        k: v
        for k, v in result.summary_record().items()
        if k not in VOLATILE_TIMING_FIELDS
    }
    return dumps_strict(record)


def _short_hotspot(**overrides):
    kwargs = dict(n_clients=2, duration_s=5.0, seed=3)
    kwargs.update(overrides)
    return hotspot_world(**kwargs)


class TestAssembly:
    def test_hotspot_world_structure(self):
        world = WorldBuilder(_short_hotspot()).build()
        assert world.server is not None
        assert len(world.clients) == 2
        # Two radios per dual-interface client, exposed for timelines.
        assert len(world.radios) == 4
        assert world.injector is None

    def test_client_interfaces_follow_spec_order(self):
        world = WorldBuilder(_short_hotspot()).build()
        assert list(world.clients[0].interfaces) == ["bluetooth", "wlan"]

    def test_prefetch_preloads_server_queue(self):
        spec = _short_hotspot(server_prefetch_s=10.0)
        world = WorldBuilder(spec).build()
        session = world.server.sessions["client0"]
        assert session.backlog_bytes == int(10.0 * 128_000.0 / 8.0)

    def test_fault_plan_factory_resolved_at_build(self):
        spec = faulty_hotspot_world(
            n_clients=1, duration_s=5.0, outage_start_s=1.0,
            outage_duration_s=1.0, seed=3,
        )
        assert callable(spec.fault_plan)
        world = WorldBuilder(spec).build()
        assert isinstance(world.fault_plan, FaultPlan)
        assert len(world.fault_plan) > 0

    def test_psm_world_builds_mac_stack(self):
        world = WorldBuilder(psm_baseline_world(n_clients=2, duration_s=5.0)).build()
        assert world.access_point is not None
        assert len(world.stations) == 2
        assert world.server is None

    def test_fleet_world_builds_fleet_layers(self):
        spec = fleet_hotspot_world(n_clients=2, n_aps=2, duration_s=5.0)
        world = WorldBuilder(spec).build()
        assert world.fleet is not None
        assert world.handoff is not None
        assert len(world.topology.sites()) == 2

    def test_world_runs_only_once(self):
        world = WorldBuilder(_short_hotspot()).build()
        world.run()
        with pytest.raises(RuntimeError, match="only run once"):
            world.run()


class TestDeterminism:
    def test_same_spec_same_seed_byte_identical(self):
        first = WorldBuilder(_short_hotspot()).run()
        second = WorldBuilder(_short_hotspot()).run()
        assert _pinned(first) == _pinned(second)

    def test_different_seed_differs(self):
        spec_a = fleet_hotspot_world(n_clients=4, n_aps=2, duration_s=10.0, seed=0)
        spec_b = fleet_hotspot_world(n_clients=4, n_aps=2, duration_s=10.0, seed=1)
        record_a = WorldBuilder(spec_a).run().summary_record()
        record_b = WorldBuilder(spec_b).run().summary_record()
        assert record_a != record_b

    def test_faulty_world_deterministic(self):
        def make():
            return faulty_hotspot_world(
                n_clients=2, duration_s=10.0, outage_start_s=2.0,
                outage_duration_s=3.0, churn_clients=1,
                interference_rate_per_min=2.0, seed=7,
            )

        first = WorldBuilder(make()).run()
        second = WorldBuilder(make()).run()
        assert _pinned(first) == _pinned(second)


class TestCustomWorlds:
    def test_custom_spec_without_preset(self):
        # A world no preset produces: one Bluetooth-only client streaming
        # Poisson packet traffic under the hotspot resource manager.
        spec = WorldSpec(
            delivery="hotspot",
            duration_s=5.0,
            seed=11,
            clients=uniform_nodes(
                1,
                [InterfaceSpec("bluetooth")],
                TrafficSpec(kind="poisson", bitrate_bps=64_000.0),
            ),
            label="custom-poisson",
        )
        result = WorldBuilder(spec).run()
        record = result.summary_record()
        assert record["label"] == "custom-poisson"
        assert record["n_clients"] == 1
        assert result.clients[0].bytes_received > 0

    def test_extras_flow_into_summary_record(self):
        spec = _short_hotspot()
        spec.extras["experiment"] = "e1"
        record = WorldBuilder(spec).run().summary_record()
        assert record["experiment"] == "e1"

    @pytest.mark.parametrize(
        "delivery, policy, label, extras",
        [
            ("hotspot", None, "hotspot[edf]", []),
            ("unscheduled", None, "unscheduled", []),
            ("psm", None, "802.11-psm", []),
            ("psm", "unap", "unap-hotspot[unap]", ["naps", "napped_s", "micro_doze_dwells"]),
            ("psm", "cam", "unap-hotspot[cam]", []),
            (
                "fleet",
                None,
                "fleet-hotspot[edf]",
                [
                    "n_aps", "handoffs", "handoff_suspensions", "handoffs_declined",
                    "association_churn", "admission_rejections", "cells",
                    "handoff_timeline",
                ],
            ),
            ("pamas", None, "pamas", ["nodes_died", "mean_availability"]),
            ("ecmac", None, "ec-mac", ["superframes", "frames_scheduled", "ecmac_retransmissions"]),
        ],
    )
    def test_unlabelled_spec_gets_the_mode_default(self, delivery, policy, label, extras):
        # Every preset sets a label and extras; a hand-built spec sets
        # neither, so the mode's default label and its own extras show.
        spec = WorldSpec(
            delivery=delivery,
            duration_s=2.0,
            seed=1,
            clients=uniform_nodes(2, [InterfaceSpec("wlan")], TrafficSpec()),
            power_policy=policy,
        )
        result = WorldBuilder(spec).run()
        assert result.label == label
        assert list(result.extras) == extras
        assert [c.name for c in result.clients] == ["client0", "client1"]

    def test_registry_runner_matches_builder_direct(self):
        via_registry = get_scenario("hotspot")(n_clients=2, duration_s=5.0, seed=3)
        via_builder = WorldBuilder(_short_hotspot()).run()
        assert _pinned(via_registry) == _pinned(via_builder)
