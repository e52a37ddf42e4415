"""The fleet-hotspot scenario end-to-end: the PR's acceptance criteria."""

import json

import pytest

from repro.__main__ import main
from repro.build import WorldBuilder
from repro.build.presets import (
    city_grid_world,
    fleet_hotspot_world,
    hotspot_world,
    unscheduled_world,
)
from repro.exp import scenario_names
from repro.metrics.energy import wnic_power_saving_fraction
from repro.obs import ObsSession


class TestAcceptance:
    def test_reference_fleet_roams_without_underruns(self):
        # 4 APs, 24 roaming clients, 120 s: zero QoS underruns, and the
        # per-client WNIC saving stays within 5 points of the single-AP
        # hotspot baseline (both measured against unscheduled WLAN).
        fleet = WorldBuilder(fleet_hotspot_world(seed=0)).run()
        assert fleet.extras["handoffs"] > 0  # clients actually roam
        assert sum(c.qos.underruns for c in fleet.clients) == 0
        assert fleet.qos_maintained()

        wlan = WorldBuilder(unscheduled_world("wlan", n_clients=3, duration_s=120.0)).run()
        single = WorldBuilder(hotspot_world(n_clients=3, duration_s=120.0)).run()
        baseline_saving = wnic_power_saving_fraction(
            wlan.mean_wnic_power_w(), single.mean_wnic_power_w()
        )
        fleet_saving = wnic_power_saving_fraction(
            wlan.mean_wnic_power_w(), fleet.mean_wnic_power_w()
        )
        assert fleet_saving == pytest.approx(baseline_saving, abs=0.05)


class TestScenarioShape:
    def run_small(self, obs=None, **kwargs):
        defaults = dict(n_clients=6, n_aps=2, duration_s=20.0, seed=0)
        defaults.update(kwargs)
        return WorldBuilder(fleet_hotspot_world(**defaults)).run(obs=obs)

    def test_registered_for_campaigns(self):
        assert "fleet-hotspot" in scenario_names()

    def test_extras_carry_fleet_counters(self):
        result = self.run_small()
        extras = result.extras
        for key in (
            "n_aps", "handoffs", "handoff_suspensions", "handoffs_declined",
            "association_churn", "admission_rejections", "cells",
            "handoff_timeline",
        ):
            assert key in extras
        assert sorted(extras["cells"]) == ["ap0", "ap1"]
        assert extras["association_churn"] == extras["handoffs"]
        # Kernel workload moved from fleet extras to the base result.
        assert result.sim_events > 0
        assert result.summary_record()["sim_events"] == result.sim_events

    def test_summary_record_is_json_serialisable(self):
        record = self.run_small().summary_record()
        json.dumps(record)  # must not raise
        assert record["handoffs"] == len(record["handoff_timeline"])

    def test_every_client_is_served(self):
        result = self.run_small()
        assert all(c.bytes_received > 0 for c in result.clients)

    def test_utilisation_cap_is_plumbed_to_cells(self):
        # A cap so tight that 6 clients cannot share 2 cells: some
        # admissions must fail loudly.
        with pytest.raises(Exception):
            self.run_small(utilisation_cap=0.03)

    def test_trace_layer_events_flow_through_obs(self):
        obs = ObsSession(collect_metrics=True)
        obs.begin_run("test/fleet")
        result = self.run_small(obs=obs)
        obs.record(result)
        snapshot = obs.registry.as_dict()
        assert snapshot.get("trace.net.associate", 0) >= 6
        if result.extras["handoffs"]:
            latency = snapshot["net.handoff.latency_s"]
            assert latency["count"] == result.extras["handoffs"]
        # Per-cell utilisation gauges landed under net.cell.<name>.*
        assert "net.cell.ap0.load" in snapshot

    def test_validation(self):
        with pytest.raises(ValueError):
            WorldBuilder(fleet_hotspot_world(n_clients=0)).run()
        with pytest.raises(ValueError):
            WorldBuilder(fleet_hotspot_world(n_aps=0)).run()
        with pytest.raises(ValueError):
            WorldBuilder(fleet_hotspot_world(duration_s=0.0)).run()


class TestCityGridScenario:
    def run_small(self, **kwargs):
        defaults = dict(
            n_clients=12, grid_rows=2, grid_cols=2, duration_s=20.0, seed=0
        )
        defaults.update(kwargs)
        return WorldBuilder(city_grid_world(**defaults)).run()

    def test_registered_for_campaigns(self):
        assert "city-grid" in scenario_names()

    def test_grid_cells_carry_row_col_names(self):
        result = self.run_small()
        assert sorted(result.extras["cells"]) == [
            "ap0-0", "ap0-1", "ap1-0", "ap1-1"
        ]
        assert result.extras["n_aps"] == 4

    def test_wlan_only_population_keeps_qos(self):
        result = self.run_small()
        assert result.qos_maintained()
        assert all(c.bytes_received > 0 for c in result.clients)
        # single-interface clients: no bluetooth switchovers possible
        assert result.summary_record()["switchovers"] == 0

    def test_default_label_names_the_grid(self):
        record = self.run_small().summary_record()
        assert record["label"].startswith("city-grid")

    def test_validation(self):
        with pytest.raises(ValueError):
            WorldBuilder(city_grid_world(n_clients=0)).run()
        with pytest.raises(ValueError):
            WorldBuilder(city_grid_world(grid_rows=0)).run()


class TestFleetCli:
    def test_classic_and_sharded_runs_print_the_same_rows(self, capsys):
        argv = ["fleet", "--clients", "8", "--aps", "2", "--duration", "10"]
        outputs = []
        for extra in ([], ["--shards", "1"]):
            assert main(argv + extra) == 0
            outputs.append(capsys.readouterr().out.splitlines())
        classic, sharded = outputs
        # The titles name the run mode; every row under them must agree.
        assert classic[0].startswith("Fleet fleet-hotspot[edf] (2 APs, 8 clients")
        assert sharded[0].startswith("Sharded fleet fleet-hotspot[edf]")
        assert classic[1:] == sharded[1:]
        cells = [line.split()[0] for line in classic if line.startswith("ap")]
        assert cells == ["ap0", "ap1"]
