"""Roaming semantics: hysteresis, forced roams, QoS guard, determinism."""

from repro.build import WorldBuilder
from repro.build.presets import fleet_hotspot_world
from repro.core import (
    HotspotClient,
    QoSContract,
    bluetooth_interface,
    wlan_interface,
)
from repro.exp import CampaignSpec, campaign_payload, dump_json, run_campaign
from repro.net.fleet import FleetCoordinator
from repro.net.handoff import HandoffController
from repro.net.topology import linear_deployment
from repro.sim import RandomStreams, Simulator


class ScriptedPath:
    """Mobility stub: piecewise-linear interpolation between waypoints."""

    def __init__(self, *waypoints):
        # waypoints: (time_s, x, y), sorted by time.
        self.waypoints = list(waypoints)

    def position(self, time_s):
        points = self.waypoints
        if time_s <= points[0][0]:
            return (points[0][1], points[0][2])
        for (t0, x0, y0), (t1, x1, y1) in zip(points, points[1:]):
            if time_s <= t1:
                f = (time_s - t0) / (t1 - t0)
                return (x0 + f * (x1 - x0), y0 + f * (y1 - y0))
        return (points[-1][1], points[-1][2])


def make_client(sim, name, rate=128_000.0):
    available = {
        "bluetooth": bluetooth_interface(sim, name=f"{name}/bt"),
        "wlan": wlan_interface(sim, name=f"{name}/wlan"),
    }
    return HotspotClient(
        sim, name, QoSContract(client=name, stream_rate_bps=rate), available
    )


def make_rig(utilisation_cap=0.9, **handoff_kwargs):
    sim = Simulator()
    streams = RandomStreams(seed=0)
    topology = linear_deployment(2, spacing_m=50.0)
    fleet = FleetCoordinator(
        sim, topology, gauge_interval_s=0.0, utilisation_cap=utilisation_cap
    )
    handoff = HandoffController(sim, fleet, streams, **handoff_kwargs)
    return sim, fleet, handoff


class TestHysteresis:
    def test_midpoint_client_never_ping_pongs(self):
        # At the exact midpoint both cells offer identical quality; the
        # hysteresis margin must hold the client on its original cell.
        sim, fleet, handoff = make_rig()
        client = make_client(sim, "c0")
        fleet.admit(client, (50.0, 0.0))
        handoff.track("c0", ScriptedPath((0.0, 50.0, 0.0)))
        fleet.start()
        handoff.start()
        sim.run(until=60.0)
        assert handoff.handoffs == 0
        assert fleet.association.churn == 0

    def test_min_dwell_rate_limits_roams(self):
        # A walk that crosses the boundary repeatedly: with a long dwell
        # the client cannot roam more than once per dwell window.
        sim, fleet, handoff = make_rig(min_dwell_s=20.0)
        client = make_client(sim, "c0")
        fleet.admit(client, (25.0, 0.0))
        # Zig-zag between the two cell centres every 5 seconds.
        zigzag = [(5.0 * i, 75.0 if i % 2 else 25.0, 0.0) for i in range(13)]
        handoff.track("c0", ScriptedPath(*zigzag))
        fleet.start()
        handoff.start()
        sim.run(until=60.0)
        assert handoff.handoffs <= 60.0 / 20.0 + 1


class TestRoaming:
    def test_walk_between_cells_hands_off_once(self):
        sim, fleet, handoff = make_rig()
        client = make_client(sim, "c0")
        fleet.admit(client, (25.0, 0.0))
        handoff.track(
            "c0", ScriptedPath((0.0, 25.0, 0.0), (30.0, 75.0, 0.0))
        )
        fleet.start()
        handoff.start()
        sim.run(until=40.0)
        assert handoff.handoffs == 1
        assert fleet.association.site_of("c0") == "ap1"
        (record,) = handoff.timeline_records()
        assert record[1:] == ["c0", "ap0", "ap1"]

    def test_coverage_loss_waives_margin_and_dwell(self):
        # Teleport out of ap0's footprint at t=2 — before min_dwell has
        # elapsed.  The forced-roam path must move the client anyway.
        sim, fleet, handoff = make_rig(min_dwell_s=30.0)
        client = make_client(sim, "c0")
        fleet.admit(client, (25.0, 0.0))
        handoff.track(
            "c0", ScriptedPath((0.0, 25.0, 0.0), (2.0, 120.0, 0.0))
        )
        fleet.start()
        handoff.start()
        sim.run(until=10.0)
        assert handoff.handoffs == 1
        assert fleet.association.site_of("c0") == "ap1"
        assert handoff.timeline[0][0] < 30.0

    def test_full_target_cell_declines_the_roam(self):
        # Cap 0.1: bluetooth (52 kb/s budget) can never host a 128 kb/s
        # contract, and a 500 kb/s squatter leaves ap1's WLAN budget
        # (550 kb/s) with no room either — ap1 is full on every channel.
        sim, fleet, handoff = make_rig(utilisation_cap=0.1)
        walker = make_client(sim, "c0")
        squatter = make_client(sim, "c1", rate=500_000.0)
        fleet.admit(walker, (25.0, 0.0))
        fleet.admit(squatter, (75.0, 0.0))  # fills ap1 at this cap
        handoff.track(
            "c0", ScriptedPath((0.0, 25.0, 0.0), (20.0, 75.0, 0.0))
        )
        fleet.start()
        handoff.start()
        sim.run(until=30.0)
        assert handoff.handoffs == 0
        assert handoff.declined > 0
        assert fleet.association.site_of("c0") == "ap0"


class TestQosGuard:
    def test_long_latency_handoffs_suspend_instead_of_underrunning(self):
        # An 8-second reassociation gap exceeds what any client buffer
        # can bridge: every roam must take the protected path, and no
        # playout buffer may underrun.
        result = WorldBuilder(
            fleet_hotspot_world(
                n_clients=8,
                n_aps=2,
                duration_s=40.0,
                seed=0,
                burst_bytes=40_000,
                client_buffer_bytes=96_000,
                handoff_latency_range_s=(8.0, 8.0),
            )
        ).run()
        assert result.extras["handoffs"] > 0
        assert (
            result.extras["handoff_suspensions"] == result.extras["handoffs"]
        )
        assert sum(c.qos.underruns for c in result.clients) == 0


class TestDeterminism:
    def test_same_seed_same_timeline(self):
        runs = [
            WorldBuilder(
                fleet_hotspot_world(
                    n_clients=8, n_aps=2, duration_s=40.0, seed=7
                )
            ).run()
            for _ in range(2)
        ]
        assert runs[0].extras["handoff_timeline"] == runs[1].extras[
            "handoff_timeline"
        ]
        assert runs[0].extras["handoff_timeline"]  # non-trivial

    def test_different_seed_different_timeline(self):
        a = WorldBuilder(
            fleet_hotspot_world(
                n_clients=8, n_aps=2, duration_s=40.0, seed=0
            )
        ).run()
        b = WorldBuilder(
            fleet_hotspot_world(
                n_clients=8, n_aps=2, duration_s=40.0, seed=1
            )
        ).run()
        assert a.extras["handoff_timeline"] != b.extras["handoff_timeline"]

    def test_campaign_jobs1_vs_jobsN_byte_identical(self):
        # The stacked acceptance criterion: the full campaign artifact —
        # per-cell breakdowns and handoff timelines included — must be
        # byte-identical whether runs execute in-process or in a pool.
        def spec():
            return CampaignSpec(
                name="fleet-determinism",
                scenario="fleet-hotspot",
                base={"duration_s": 15.0, "n_clients": 6, "n_aps": 2},
                grid={},
                seeds=[0, 1],
            )

        serial = run_campaign(spec(), jobs=1)
        parallel = run_campaign(spec(), jobs=2)
        assert serial.records() == parallel.records()
        assert dump_json(campaign_payload(serial)) == dump_json(
            campaign_payload(parallel)
        )
        # The timeline itself must have ridden into the records.
        for result in serial.results:
            assert "handoff_timeline" in result.record
