"""Tests for the JSONL / Chrome-trace exporters and summary tables."""

import json

from repro.build import WorldBuilder
from repro.build.presets import hotspot_world
from repro.devices import wlan_cf_card
from repro.obs import (
    JsonlTraceWriter,
    MetricsCollector,
    ObsSession,
    TraceBus,
    chrome_trace_events,
    radio_dwell_table,
    top_kinds_table,
)
from repro.phy import Radio
from repro.sim import Simulator

REQUIRED_KEYS = ("time_s", "layer", "entity", "kind")


def traced_hotspot_run(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    chrome_path = tmp_path / "trace.json"
    with ObsSession(
        trace_path=str(trace_path), chrome_trace_path=str(chrome_path)
    ) as obs:
        obs.begin_run("hotspot")
        result = obs.record(
            WorldBuilder(
                hotspot_world(
                    n_clients=2,
                    duration_s=20.0,
                    bluetooth_quality_script=[(0.0, 1.0), (8.0, 0.2)],
                )
            ).run(obs=obs)
        )
    return trace_path, chrome_path, result


class TestJsonlExport:
    def test_every_line_is_json_with_required_keys(self, tmp_path):
        trace_path, _, _ = traced_hotspot_run(tmp_path)
        lines = trace_path.read_text().splitlines()
        assert len(lines) > 100
        layers = set()
        for line in lines:
            record = json.loads(line)
            for key in REQUIRED_KEYS:
                assert key in record, f"missing {key}: {record}"
            assert record["run"] == "hotspot"
            layers.add(record["layer"])
        # The instrumented stack spans at least five layers.
        assert len(layers) >= 5

    def test_writer_counts_lines_and_honours_filters(self, tmp_path):
        path = tmp_path / "phy.jsonl"
        bus = TraceBus()
        writer = JsonlTraceWriter.open(str(path)).attach(bus, layers=["phy"])
        bus.emit("phy", "radio", "state")
        bus.emit("mac", "ap", "beacon")
        writer.close()
        assert writer.lines_written == 1
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["layer"] == "phy"


class TestChromeTrace:
    def test_one_thread_per_radio_with_dwell_slices(self, tmp_path):
        _, chrome_path, result = traced_hotspot_run(tmp_path)
        payload = json.loads(chrome_path.read_text())
        events = payload["traceEvents"]
        thread_names = [
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        ]
        # Every radio gets a track, plus component tracks for the
        # instrumented layers that emitted during the run.
        assert set(result.radios) <= set(thread_names)
        components = set(thread_names) - set(result.radios)
        assert "mac" in components and "core" in components
        slices = [e for e in events if e.get("ph") == "X"]
        assert slices
        for record in slices:
            assert record["dur"] > 0
            assert record["ts"] >= 0

    def test_component_tracks_hold_instants_and_sort_after_radios(
        self, tmp_path
    ):
        _, chrome_path, result = traced_hotspot_run(tmp_path)
        payload = json.loads(chrome_path.read_text())
        events = payload["traceEvents"]
        names_by_tid = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        sort_by_tid = {
            e["tid"]: e["args"]["sort_index"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_sort_index"
        }
        radio_tids = {t for t, n in names_by_tid.items() if n in result.radios}
        component_tids = set(names_by_tid) - radio_tids
        assert component_tids
        assert max(sort_by_tid[t] for t in radio_tids) < min(
            sort_by_tid[t] for t in component_tids
        )
        instants = [e for e in events if e.get("ph") == "i"]
        assert instants
        for record in instants:
            assert record["tid"] in component_tids
            assert record["cat"] == names_by_tid[record["tid"]]
            assert "entity" in record["args"]

    def test_slices_cover_radio_states(self):
        sim = Simulator()
        radio = Radio(sim, wlan_cf_card(), name="c0/wlan")

        def driver():
            yield sim.timeout(1.0)
            yield radio.transition_to("doze")
            yield sim.timeout(2.0)

        sim.process(driver())
        sim.run(until=4.0)
        events = chrome_trace_events([("run", 4.0, {"c0/wlan": radio})])
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert "idle" in names and "doze" in names


class TestSummaryTables:
    def test_top_kinds_from_events_and_registry_agree(self):
        bus = TraceBus()
        collector = MetricsCollector().attach(bus)
        bus.emit("phy", "radio", "state", dwell_s=1.0)
        bus.emit("phy", "radio", "state", dwell_s=2.0)
        bus.emit("mac", "ap", "beacon")
        from_events = top_kinds_table(bus.events())
        from_registry = top_kinds_table(collector.registry)
        for table in (from_events, from_registry):
            assert "phy.state" in table
            assert "mac.beacon" in table
        assert collector.registry.histogram("phy.state.dwell_s").count == 2

    def test_radio_dwell_table_lists_occupied_states(self):
        sim = Simulator()
        radio = Radio(sim, wlan_cf_card(), name="c0/wlan")
        sim.run(until=5.0)
        table = radio_dwell_table({"c0/wlan": radio})
        assert "c0/wlan" in table
        assert "idle" in table
