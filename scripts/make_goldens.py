"""Regenerate the golden summary records behind the equivalence tests.

Runs every registered scenario at the pinned parameter sets and seeds in
``GOLDEN_CONFIGS`` and writes the ``dumps_strict``-serialised
``summary_record()`` strings to ``tests/build/golden/<scenario>.json``.

Only run this intentionally — e.g. when a scenario's *behaviour* is
meant to change — never to paper over an accidental determinism break.
The equivalence tests (tests/build/test_golden_equivalence.py) treat
these files as the contract that refactors of the world-assembly code
preserve byte-identical results at fixed seeds.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core.outcome import VOLATILE_TIMING_FIELDS  # noqa: E402
from repro.exp import dumps_strict, get_scenario  # noqa: E402

GOLDEN_SEEDS = (0, 1)

#: scenario name -> pinned kwargs (JSON-serialisable; seeds added per run).
GOLDEN_CONFIGS = {
    "hotspot": {
        "n_clients": 2,
        "duration_s": 20.0,
        "bluetooth_quality_script": [[0.0, 1.0], [12.0, 0.2]],
    },
    "faulty-hotspot": {
        "n_clients": 2,
        "duration_s": 30.0,
        "outage_start_s": 8.0,
        "outage_duration_s": 10.0,
        "churn_clients": 1,
        "interference_rate_per_min": 2.0,
    },
    "unscheduled": {
        "interface": "wlan",
        "n_clients": 2,
        "duration_s": 15.0,
    },
    "psm-baseline": {
        "n_clients": 2,
        "duration_s": 15.0,
    },
    "psm-crossval": {
        "n_clients": 2,
        "duration_s": 10.0,
        "offered_load_bps": 96_000.0,
        "listen_interval": 2,
    },
    "unap-hotspot": {
        "n_clients": 3,
        "duration_s": 5.0,
    },
    "pamas": {
        "n_clients": 4,
        "duration_s": 60.0,
    },
    "ecmac": {
        "n_clients": 2,
        "duration_s": 10.0,
    },
    "fleet-hotspot": {
        "n_clients": 8,
        "n_aps": 3,
        "duration_s": 20.0,
    },
    "city-grid": {
        "n_clients": 12,
        "grid_rows": 2,
        "grid_cols": 2,
        "duration_s": 20.0,
    },
}


def golden_dir() -> str:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.join(root, "tests", "build", "golden")


def golden_record(name: str, seed: int) -> str:
    """Scenario ``name``'s golden string at ``seed``, from a fresh run."""
    result = get_scenario(name)(**GOLDEN_CONFIGS[name], seed=seed)
    # Wall-clock fields measure the host, not the simulation — goldens
    # pin only the deterministic part of the record.
    record = {
        k: v
        for k, v in result.summary_record().items()
        if k not in VOLATILE_TIMING_FIELDS
    }
    return dumps_strict(record)


def main() -> int:
    out_dir = golden_dir()
    os.makedirs(out_dir, exist_ok=True)
    for name, params in GOLDEN_CONFIGS.items():
        records = {str(seed): golden_record(name, seed) for seed in GOLDEN_SEEDS}
        payload = {"scenario": name, "params": params, "records": records}
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
