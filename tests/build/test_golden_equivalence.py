"""Golden equivalence: the composition layer preserves every scenario.

The files under ``tests/build/golden/`` hold ``dumps_strict``-serialised
``summary_record()`` strings captured from the pre-``repro.build``
scenario runners at pinned parameters and seeds.  These tests re-run
every registered scenario through the current code path (registry
runnables derived from the presets → ``WorldBuilder``) and require the output to match **byte for byte** —
any drift means world assembly changed behaviour, not just shape.

Regenerate intentionally with ``python scripts/make_goldens.py`` only
when a scenario's behaviour is *meant* to change.
"""

import json
from pathlib import Path

import pytest

from repro.core.outcome import VOLATILE_TIMING_FIELDS
from repro.exp import dumps_strict, get_scenario, scenario_entries

GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden_payloads():
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        with open(path, encoding="utf-8") as stream:
            yield json.load(stream)


GOLDENS = list(_golden_payloads())


def test_every_registered_scenario_has_a_golden():
    # Only the declarative (preset-derived) entries: test modules
    # register hand-written fakes that have no golden.
    covered = {payload["scenario"] for payload in GOLDENS}
    assert covered == {e.name for e in scenario_entries() if e.spec_factory is not None}


def test_goldens_pin_two_seeds_each():
    for payload in GOLDENS:
        assert sorted(payload["records"]) == ["0", "1"], payload["scenario"]


@pytest.mark.parametrize(
    "payload", GOLDENS, ids=[p["scenario"] for p in GOLDENS]
)
def test_summary_record_byte_identical_to_golden(payload):
    fn = get_scenario(payload["scenario"])
    for seed_str, expected in payload["records"].items():
        result = fn(**payload["params"], seed=int(seed_str))
        record = {
            k: v
            for k, v in result.summary_record().items()
            if k not in VOLATILE_TIMING_FIELDS
        }
        actual = dumps_strict(record)
        assert actual == expected, (
            f"{payload['scenario']} seed {seed_str}: summary_record drifted "
            "from the golden capture"
        )
