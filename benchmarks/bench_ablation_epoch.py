"""Ablation — scheduling-round granularity.

The server re-plans every ``epoch_s``.  Fine epochs react fast but make
many small decisions (and with a min-burst floor, the burst structure is
set by the floor anyway); coarse epochs risk missing deadlines because a
client can drain a whole buffer between rounds.  The paper's centralised
scheduler needs an epoch comfortably below the client buffer's playback
time (~6 s at 96 kB / 128 kb/s).
"""

from conftest import run_once

from repro.build import WorldBuilder
from repro.build.presets import hotspot_world
from repro.metrics import format_table

DURATION_S = 60.0
EPOCHS_S = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0)


def run_epoch_sweep():
    rows = []
    for epoch_s in EPOCHS_S:
        result = WorldBuilder(
            hotspot_world(
                n_clients=3, duration_s=DURATION_S, epoch_s=epoch_s
            )
        ).run()
        stall = sum(c.qos.underrun_time_s for c in result.clients)
        rows.append(
            {
                "epoch_s": epoch_s,
                "power_w": result.mean_wnic_power_w(),
                "qos": result.qos_maintained(),
                "stall_s": stall,
                "rounds": result.server.rounds,
            }
        )
    return rows


def test_bench_epoch(benchmark, emit):
    rows = run_once(benchmark, run_epoch_sweep)
    emit(
        format_table(
            ["epoch (s)", "mean WNIC power (W)", "QoS", "total stall (s)", "rounds"],
            [[r["epoch_s"], r["power_w"], r["qos"], r["stall_s"], r["rounds"]] for r in rows],
            title="Ablation: scheduling-round period (3 clients, Bluetooth)",
        )
    )
    by_epoch = {r["epoch_s"]: r for r in rows}
    # Sub-second epochs hold QoS and land at essentially the same power.
    for epoch_s in (0.1, 0.25, 0.5):
        assert by_epoch[epoch_s]["qos"], f"epoch {epoch_s}s must hold QoS"
    fine_powers = [by_epoch[e]["power_w"] for e in (0.1, 0.25, 0.5)]
    assert max(fine_powers) < 1.25 * min(fine_powers)
    # Past the buffer's reaction margin, stall grows with the epoch.
    stalls = [by_epoch[e]["stall_s"] for e in (1.0, 2.0, 4.0)]
    assert stalls == sorted(stalls)
    assert stalls[-1] > 1.0
