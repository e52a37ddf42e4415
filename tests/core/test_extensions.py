"""Tests for extension features: battery-aware scheduling, GPRS, CLI."""

import pytest

from repro.core import (
    HotspotClient,
    HotspotServer,
    InterfaceSelectionPolicy,
    LowBatteryFirstScheduler,
    QoSContract,
    bluetooth_interface,
    gprs_interface,
    wlan_interface,
)
from repro.core.scheduling import BurstRequest, make_scheduler
from repro.phy import Battery
from repro.sim import Simulator


def request(client, battery=1.0, deadline=10.0):
    return BurstRequest(
        client=client, nbytes=10_000, deadline_s=deadline, battery_level=battery
    )


class TestLowBatteryFirst:
    def test_registered(self):
        scheduler = make_scheduler("low-battery-first")
        assert isinstance(scheduler, LowBatteryFirstScheduler)

    def test_orders_by_battery_ascending(self):
        scheduler = LowBatteryFirstScheduler()
        ordered = scheduler.order(
            [request("full", 0.9), request("dying", 0.1), request("half", 0.5)],
            0.0,
        )
        assert [r.client for r in ordered] == ["dying", "half", "full"]

    def test_deadline_breaks_battery_ties(self):
        scheduler = LowBatteryFirstScheduler()
        ordered = scheduler.order(
            [request("late", 0.5, deadline=9.0), request("soon", 0.5, deadline=1.0)],
            0.0,
        )
        assert [r.client for r in ordered] == ["soon", "late"]

    def test_server_feeds_battery_level_from_client_battery(self):
        sim = Simulator()
        server = HotspotServer(sim, scheduler="low-battery-first")
        contract = QoSContract(client="c0", stream_rate_bps=128_000.0)
        battery = Battery(capacity_j=100.0)
        battery.draw(power_w=60.0, duration_s=1.0)  # 40% left
        client = HotspotClient(
            sim,
            "c0",
            contract,
            {"bluetooth": bluetooth_interface(sim)},
            battery=battery,
        )
        server.register(client)
        server.ingest("c0", 50_000)
        requests = server._build_requests()
        assert len(requests) == 1
        assert requests[0].battery_level == pytest.approx(0.4)


class TestGprsInterface:
    def test_states(self):
        sim = Simulator()
        interface = gprs_interface(sim)
        assert interface.resting_state == "ready"
        assert interface.sleep_state == "standby"
        assert interface.active_state == "transfer"

    def test_rate_below_bluetooth(self):
        sim = Simulator()
        gprs = gprs_interface(sim)
        bt = bluetooth_interface(sim, name="bt2")
        assert gprs.effective_rate_bps < bt.effective_rate_bps

    def test_policy_falls_through_to_gprs(self):
        sim = Simulator()
        interfaces = {
            "bluetooth": bluetooth_interface(sim, quality=lambda t: 0.1),
            "wlan": wlan_interface(sim, name="w", quality=lambda t: 0.1),
            "gprs": gprs_interface(sim),
        }
        contract = QoSContract(client="c", stream_rate_bps=20_000.0)
        client = HotspotClient(sim, "c", contract, interfaces)
        policy = InterfaceSelectionPolicy()
        # BT and WLAN both below quality threshold; GPRS (quality 1.0)
        # covers a 20 kb/s stream with margin.
        assert policy.select(client, 0.0) == "gprs"

    def test_gprs_cannot_carry_mp3(self):
        sim = Simulator()
        interfaces = {
            "wlan": wlan_interface(sim, quality=lambda t: 1.0),
            "gprs": gprs_interface(sim),
        }
        contract = QoSContract(client="c", stream_rate_bps=128_000.0)
        client = HotspotClient(sim, "c", contract, interfaces)
        policy = InterfaceSelectionPolicy(preference=("gprs", "wlan"))
        # Despite GPRS being preferred, its rate excludes it.
        assert policy.select(client, 0.0) == "wlan"

    def test_burst_over_gprs(self):
        sim = Simulator()
        interface = gprs_interface(sim)
        contract = QoSContract(client="c", stream_rate_bps=20_000.0)
        client = HotspotClient(sim, "c", contract, {"gprs": interface})

        def driver(sim):
            yield client.initialise()
            yield client.execute_burst("gprs", 10_000)

        sim.process(driver(sim))
        sim.run(until=30.0)
        assert client.bursts_received == 1
        assert interface.radio.state == "standby"


class TestCli:
    def test_fig2_command_runs(self, capsys):
        from repro.__main__ import main

        code = main(["fig2", "--duration", "10", "--clients", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "WNIC saving" in out

    def test_fig1_command_runs(self, capsys):
        from repro.__main__ import main

        code = main(["fig1", "--duration", "10", "--clients", "1"])
        assert code == 0
        assert "legend" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["explode"])

    def test_fleet_defaults_do_not_leak_into_other_commands(self):
        # Regression: argparse parents= shares action objects, so the
        # fleet subparser's bigger defaults (24 clients, 120 s) once
        # bled into fig2/fig1/sweeps via set_defaults().
        from repro.__main__ import build_parser

        parser = build_parser()
        fig2 = parser.parse_args(["fig2"])
        assert (fig2.clients, fig2.duration) == (3, 60.0)
        fleet = parser.parse_args(["fleet"])
        assert (fleet.clients, fleet.duration) == (24, 120.0)


class TestCliSweeps:
    def test_sweep_schedulers_runs(self, capsys):
        from repro.__main__ import main

        code = main(["sweep-schedulers", "--duration", "8", "--clients", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scheduler sweep" in out
        assert "edf" in out and "wfq" in out

    def test_forced_serial_note_names_its_flag(self, capsys):
        from repro.__main__ import main

        code = main(["sweep-schedulers", "--duration", "2", "--clients", "1",
                     "--metrics", "--jobs", "2"])
        assert code == 0
        err = capsys.readouterr().err
        (note,) = [line for line in err.splitlines() if line.startswith("note:")]
        assert "--metrics" in note and "--jobs 1" in note
        assert "tracing" not in note

    def test_sweep_bursts_runs(self, capsys):
        from repro.__main__ import main

        code = main(["sweep-bursts", "--duration", "8", "--clients", "1"])
        assert code == 0
        assert "Burst-size sweep" in capsys.readouterr().out

    def test_json_flag(self, capsys):
        import json

        from repro.__main__ import main

        code = main(["fig2", "--duration", "8", "--clients", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clients"] == 1
        assert len(payload["configurations"]) == 3
