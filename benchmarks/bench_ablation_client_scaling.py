"""Ablation — client count vs per-client power and QoS.

The paper evaluates three concurrent clients; this bench asks how far the
single Bluetooth channel + WLAN channel combination stretches: per-client
power stays flat while capacity holds, and QoS degrades once aggregate
demand outgrows the serving channels.
"""

from conftest import run_once

from repro.build import WorldBuilder
from repro.build.presets import hotspot_world
from repro.metrics import format_table

DURATION_S = 45.0
CLIENT_COUNTS = (1, 2, 3, 6, 9)


def run_scaling():
    rows = []
    for n_clients in CLIENT_COUNTS:
        result = WorldBuilder(
            hotspot_world(
                n_clients=n_clients,
                duration_s=DURATION_S,
            )
        ).run()
        underruns = sum(c.qos.underruns for c in result.clients)
        expected_bytes = 128_000 / 8 * DURATION_S * 0.8
        served_fraction = sum(c.bytes_received for c in result.clients) / (
            n_clients * 128_000 / 8 * DURATION_S
        )
        rows.append(
            {
                "clients": n_clients,
                "power_w": result.mean_wnic_power_w(),
                "qos": result.qos_maintained(),
                "underruns": underruns,
                "served_fraction": served_fraction,
            }
        )
    return rows


def test_bench_client_scaling(benchmark, emit):
    rows = run_once(benchmark, run_scaling)
    emit(
        format_table(
            ["clients", "per-client WNIC power (W)", "QoS", "underruns", "stream served"],
            [[r["clients"], r["power_w"], r["qos"], r["underruns"], r["served_fraction"]] for r in rows],
            title="Ablation: client scaling on one Bluetooth piconet",
        )
    )
    by_count = {r["clients"]: r for r in rows}
    # The paper's 3-client configuration holds QoS.
    for count in (1, 2, 3):
        assert by_count[count]["qos"], f"{count} clients must hold QoS"
    # Per-client power stays within 2x of the single-client cost while
    # the channel has headroom.
    assert by_count[3]["power_w"] < 2.0 * by_count[1]["power_w"]
    # Aggregate demand at 9 clients (9*128 kb/s > 615 kb/s BT channel)
    # exceeds Bluetooth capacity: service visibly degrades.
    assert (
        by_count[9]["served_fraction"] < 0.95
        or not by_count[9]["qos"]
    )
