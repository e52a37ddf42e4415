"""Ablation — burst size vs power and QoS.

Paper: "Larger data burst sizes mean that clients can have longer periods
of sleep time, thus saving more energy" — bounded by the client's buffer.

Sweeps the minimum burst size (client buffer scaled to fit) on a
WLAN-only configuration — where each burst pays the card's expensive
off->on wake (~0.25 J), so amortisation is the dominant effect.  Shape:
power falls with burst size with diminishing returns, QoS holds
throughout.  (On Bluetooth the park->active wake is nearly free, which
is precisely why the paper starts clients there.)
"""

from conftest import run_once

from repro.build import WorldBuilder
from repro.build.presets import hotspot_world
from repro.metrics import format_table

DURATION_S = 60.0
BURSTS = (5_000, 10_000, 20_000, 40_000, 80_000, 160_000)


def run_burst_sweep():
    rows = []
    for burst in BURSTS:
        result = WorldBuilder(
            hotspot_world(
                n_clients=3,
                duration_s=DURATION_S,
                burst_bytes=burst,
                client_buffer_bytes=max(int(burst * 2.4), 24_000),
                server_prefetch_s=60.0,
                interfaces=("wlan",),
            )
        ).run()
        mean_burst = sum(c.bytes_received for c in result.clients) / max(
            sum(c.bursts for c in result.clients), 1
        )
        rows.append(
            {
                "min_burst": burst,
                "mean_burst": mean_burst,
                "power_w": result.mean_wnic_power_w(),
                "qos": result.qos_maintained(),
            }
        )
    return rows


def test_bench_burst_size(emit):
    rows = run_once(run_burst_sweep)
    emit(
        format_table(
            ["min burst (B)", "mean burst (B)", "mean WNIC power (W)", "QoS"],
            [[r["min_burst"], r["mean_burst"], r["power_w"], r["qos"]] for r in rows],
            title="Ablation: burst size vs power (WLAN-only, 3 clients)",
        )
    )
    # Larger bursts -> lower power, with diminishing returns.
    assert rows[-1]["power_w"] < rows[0]["power_w"]
    first_halving = rows[0]["power_w"] - rows[2]["power_w"]
    last_halving = rows[-2]["power_w"] - rows[-1]["power_w"]
    assert first_halving > last_halving, "diminishing returns expected"
    # QoS holds from "10s of Kbytes" upward — the paper's operating point.
    # Tiny bursts break QoS: each one pays the 300 ms WLAN wake latency,
    # and with three clients served serially the buffers cannot bridge it.
    assert all(r["qos"] for r in rows if r["min_burst"] >= 20_000)
    assert not rows[0]["qos"], "sub-10kB bursts are expected to break QoS"
