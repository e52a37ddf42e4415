"""Integration: non-CBR workloads, battery-aware service, long runs."""

import random

import pytest

from repro.apps import OnOffTraffic
from repro.build import WorldBuilder
from repro.build.presets import hotspot_world
from repro.core import (
    HotspotClient,
    HotspotServer,
    QoSContract,
    bluetooth_interface,
)
from repro.phy import Battery
from repro.sim import Simulator


class TestWebWorkload:
    def test_bursty_web_traffic_through_hotspot(self):
        """On/off web browsing: the RM coalesces each ON burst into few
        transfers and the radio parks through the think times."""
        sim = Simulator()
        source = OnOffTraffic(
            random.Random(3), mean_on_s=1.0, mean_off_s=8.0,
            packet_bytes=1460, packet_interval_s=0.01,
        )
        contract = QoSContract(
            client="web", stream_rate_bps=200_000.0, client_buffer_bytes=256_000,
            prebuffer_s=0.0,
        )
        interface = bluetooth_interface(sim)
        client = HotspotClient(sim, "web", contract, {"bluetooth": interface})
        server = HotspotServer(sim, min_burst_bytes=20_000, epoch_s=0.25)
        server.register(client)
        source.start(sim, server.sink_for("web"), until_s=60.0)
        server.start()
        sim.run(until=65.0)
        assert client.bytes_received > 0
        # Web arrivals come in ~100 packet bursts; the RM must compress
        # them into far fewer radio wake-ups than packets.
        packets = source.total_bytes(60.0) // 1460
        assert client.bursts_received < packets / 5
        # Radio parked through the think times.
        assert interface.radio.time_in_state("park") > 30.0


class TestBatteryAwareService:
    def test_low_battery_client_served_first(self):
        sim = Simulator()
        server = HotspotServer(sim, scheduler="low-battery-first", epoch_s=0.25)
        clients = []
        for name, charge in (("healthy", 1.0), ("dying", 0.05)):
            battery = Battery(capacity_j=100.0)
            battery.draw(power_w=100.0 * (1 - charge), duration_s=1.0)
            contract = QoSContract(client=name, stream_rate_bps=128_000.0)
            client = HotspotClient(
                sim, name, contract,
                {"bluetooth": bluetooth_interface(sim, name=f"{name}/bt")},
                battery=battery,
            )
            server.register(client)
            server.ingest(name, 60_000)
            clients.append(client)
        server.start()
        sim.run(until=10.0)
        healthy, dying = clients
        assert dying.burst_log and healthy.burst_log
        # The dying client's first burst lands before the healthy one's.
        assert dying.burst_log[0][0] < healthy.burst_log[0][0]


class TestLongRun:
    def test_ten_minute_stream_stays_stable(self):
        """Long-horizon stability: no drift, no leak-induced stall, QoS
        held for the whole 600 simulated seconds."""
        result = WorldBuilder(
            hotspot_world(
                n_clients=3,
                duration_s=600.0,
                bluetooth_quality_script=[(0.0, 1.0), (450.0, 0.2)],
            )
        ).run()
        assert result.qos_maintained()
        expected = 128_000 / 8 * 600.0
        for client in result.clients:
            assert client.bytes_received == pytest.approx(expected, rel=0.1)
        # Power stays in the steady-state band seen at 60 s.
        assert result.mean_wnic_power_w() < 0.12
