"""Ablation — scheduler choice in the Hotspot resource manager.

Paper: "A number of scheduling algorithms have been implemented in the
Hotspot's resource manager, ranging from standard real-time schedulers
such as earliest deadline first, to well known packet level schedulers
such as weighted fair queuing."

Runs the Figure-2 scenario under every registered scheduler and reports
power and QoS.  Shape: power is scheduler-insensitive (the energy win
comes from bursting itself), while QoS holds for deadline/fairness-aware
schedulers.
"""

from conftest import run_once

from repro.build import WorldBuilder
from repro.build.presets import hotspot_world
from repro.core.scheduling import scheduler_names
from repro.metrics import format_table

DURATION_S = 60.0


def run_scheduler_sweep():
    rows = []
    for name in scheduler_names():
        result = WorldBuilder(
            hotspot_world(
                n_clients=3,
                duration_s=DURATION_S,
                scheduler=name,
                bluetooth_quality_script=[(0.0, 1.0), (45.0, 0.2)],
            )
        ).run()
        underruns = sum(c.qos.underruns for c in result.clients)
        rows.append(
            {
                "scheduler": name,
                "power_w": result.mean_wnic_power_w(),
                "qos": result.qos_maintained(),
                "underruns": underruns,
                "bursts": sum(c.bursts for c in result.clients),
            }
        )
    return rows


def test_bench_schedulers(emit):
    rows = run_once(run_scheduler_sweep)
    emit(
        format_table(
            ["scheduler", "mean WNIC power (W)", "QoS", "underruns", "bursts"],
            [[r["scheduler"], r["power_w"], r["qos"], r["underruns"], r["bursts"]] for r in rows],
            title="Ablation: Hotspot scheduler choice (Fig.2 scenario)",
        )
    )
    by_name = {r["scheduler"]: r for r in rows}
    # The real-time schedulers the paper leads with must maintain QoS.
    assert by_name["edf"]["qos"]
    assert by_name["wfq"]["qos"]
    # Power varies little across schedulers: bursting is what saves.
    powers = [r["power_w"] for r in rows]
    assert max(powers) < 1.5 * min(powers)
    assert max(powers) < 0.15  # all far below the 0.83 W baseline
