"""Figure 1 — sample Hotspot schedule.

Paper: "Figure 1 shows a sample schedule.  The top of the figure shows
when data transfer occurs for each client.  Power levels of clients are
shown beneath.  Since scheduling is centralized, each client knows
exactly when it needs to wake up its WNIC and when it can enter a low
power state."

This bench regenerates the diagram from the actual radio state traces of
a three-client Hotspot run.
"""

from conftest import run_once

from repro.build import WorldBuilder
from repro.build.presets import hotspot_world
from repro.metrics import render_schedule_timeline

DURATION_S = 30.0


def run_figure1():
    result = WorldBuilder(
        hotspot_world(
            n_clients=3,
            duration_s=DURATION_S,
            bluetooth_quality_script=[(0.0, 1.0), (20.0, 0.2)],
        )
    ).run()
    # Only the Bluetooth radios carry the first phase; show everything.
    text = render_schedule_timeline(result.radios, 0.0, DURATION_S, columns=96)
    return result, text


def test_bench_fig1_schedule(benchmark, emit):
    result, text = run_once(benchmark, run_figure1)
    emit("Figure 1: sample schedule (3 clients, Hotspot-managed)\n" + text)
    # Every client's bursts are disjoint from its sleep: transfers happen,
    # and the dominant state is a low-power one.
    assert result.qos_maintained()
    for client in result.clients:
        assert client.bursts > 3
    for radio in result.radios.values():
        sleep_state = "park" if "park" in radio.model.states else "off"
        assert radio.time_in_state(sleep_state) > 0.6 * DURATION_S
