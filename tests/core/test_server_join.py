"""The Hotspot round's sequential channel join against its ``AllOf`` form.

``tests/core/server_reference.py`` keeps the loop that joined a round's
channels with an ``AllOf``.  Twin runs of the same seeded world, one per
form, must agree on every record field but ``sim_events``, and that
count must differ by exactly the joins the reference fired.  The fleet
worlds select interfaces with the cells' load in view, so some of their
rounds serve Bluetooth and WLAN at once.
"""

import pytest

from repro.build import WorldBuilder
from repro.build.presets import city_grid_world, fleet_hotspot_world, hotspot_world
from repro.core.outcome import VOLATILE_TIMING_FIELDS
from repro.core.server import HotspotServer
from tests.core.server_reference import all_of_scheduling_loop

WORLDS = {
    **{
        f"fleet-{n}x{aps}-seed{seed}": fleet_hotspot_world(
            n_clients=n, n_aps=aps, duration_s=20.0, seed=seed
        )
        for n, aps in ((8, 3), (12, 2))
        for seed in (0, 1, 2)
    },
    "city-grid-2x2": city_grid_world(
        n_clients=12, grid_rows=2, grid_cols=2, duration_s=20.0, seed=0
    ),
    "hotspot-switchover": hotspot_world(
        n_clients=2,
        duration_s=20.0,
        bluetooth_quality_script=[(0.0, 1.0), (12.0, 0.2)],
        seed=0,
    ),
}


def _record(spec):
    record = WorldBuilder(spec).run().summary_record()
    for name in VOLATILE_TIMING_FIELDS:
        record.pop(name, None)
    return record


@pytest.mark.parametrize("name", WORLDS)
def test_sequential_join_matches_all_of(name, monkeypatch):
    spec = WORLDS[name]
    sequential = _record(spec)
    joins = []
    monkeypatch.setattr(HotspotServer, "_scheduling_loop", all_of_scheduling_loop(joins))
    reference = _record(spec)
    assert joins, "the world never joined a round"
    assert reference.pop("sim_events") - sequential.pop("sim_events") == len(joins)
    assert sequential == reference


def test_some_round_serves_both_interfaces(monkeypatch):
    joins = []
    monkeypatch.setattr(HotspotServer, "_scheduling_loop", all_of_scheduling_loop(joins))
    WorldBuilder(WORLDS["fleet-8x3-seed0"]).run()
    assert max(joins) == 2
