"""Fleet scale baseline — runtime and event throughput at N = 3/50/200.

The first BENCH record of the repo: how fast does the kernel push a
multi-AP fleet (topology + roaming + per-cell scheduling) as the client
population grows?  Each point simulates 60 s of fleet time; the AP count
scales with the population so per-cell load stays inside admission
capacity (~6 streaming clients per cell).  Results are emitted both as a
table and as ``benchmarks/BENCH_fleet.json`` so future optimisation work
has a baseline to diff against.
"""

import json
import sys
import time
from pathlib import Path

from conftest import run_once

from repro.build import WorldBuilder
from repro.build.presets import fleet_hotspot_world
from repro.metrics import format_table

DURATION_S = 60.0
#: (n_clients, n_aps) — APs scale so each cell stays admissible.
FLEET_POINTS = ((3, 2), (50, 9), (200, 32))
#: Acceptance: the 200-client configuration must finish inside this.
RUNTIME_BUDGET_200_S = 60.0
RECORD_PATH = Path(__file__).resolve().parent / "BENCH_fleet.json"


def run_fleet_scaling():
    rows = []
    for n_clients, n_aps in FLEET_POINTS:
        started = time.perf_counter()
        result = WorldBuilder(
            fleet_hotspot_world(
                n_clients=n_clients,
                n_aps=n_aps,
                duration_s=DURATION_S,
                seed=0,
            )
        ).run()
        runtime_s = time.perf_counter() - started
        events = result.sim_events
        rows.append(
            {
                "n_clients": n_clients,
                "n_aps": n_aps,
                "sim_duration_s": DURATION_S,
                "runtime_s": runtime_s,
                "sim_events": events,
                "events_per_s": events / runtime_s,
                "clients_per_s": n_clients / runtime_s,
                "handoffs": result.extras["handoffs"],
                "qos_maintained": result.qos_maintained(),
            }
        )
    return rows


def test_bench_fleet_scaling(benchmark, emit):
    rows = run_once(benchmark, run_fleet_scaling)
    RECORD_PATH.write_text(
        json.dumps(
            {
                "bench": "fleet",
                "python": sys.version.split()[0],
                "sim_duration_s": DURATION_S,
                "points": rows,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    emit(
        format_table(
            [
                "clients",
                "APs",
                "runtime (s)",
                "events/s",
                "clients/s",
                "handoffs",
                "QoS",
            ],
            [
                [
                    r["n_clients"],
                    r["n_aps"],
                    round(r["runtime_s"], 2),
                    round(r["events_per_s"]),
                    round(r["clients_per_s"], 1),
                    r["handoffs"],
                    r["qos_maintained"],
                ]
                for r in rows
            ],
            title="Fleet scale baseline (60 s of simulated fleet time)",
        )
    )
    by_n = {r["n_clients"]: r for r in rows}
    # The stacked acceptance criterion: 200 roaming clients across 32
    # cells simulate a full minute in under a minute of wall clock.
    assert by_n[200]["runtime_s"] < RUNTIME_BUDGET_200_S
    # The baseline is only meaningful if the fleet actually works at
    # every scale point: roaming happened and no playout underran.
    for row in rows:
        assert row["qos_maintained"], f"QoS lost at N={row['n_clients']}"
        assert row["handoffs"] > 0, f"no roaming at N={row['n_clients']}"
