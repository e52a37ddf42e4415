"""Partitioning and placement planning are pure functions of the spec."""

import pytest

from repro.build.builder import WorldBuilder
from repro.build.presets import city_grid_world, fleet_hotspot_world
from repro.core.server import AdmissionError
from repro.shard import partition_cells, placement_plan
from tests.shard.specs import tight_spec


class TestPartitionCells:
    def test_balanced_contiguous_groups(self):
        groups = partition_cells([f"ap{i}" for i in range(10)], 3)
        assert [len(g) for g in groups] == [4, 3, 3]
        assert [c for g in groups for c in g] == sorted(
            f"ap{i}" for i in range(10)
        )

    def test_input_order_is_irrelevant(self):
        names = ["ap2", "ap0", "ap1", "ap3"]
        assert partition_cells(names, 2) == partition_cells(sorted(names), 2)

    def test_more_shards_than_cells_collapses(self):
        groups = partition_cells(["a", "b"], 8)
        assert groups == [["a"], ["b"]]  # never an empty group

    def test_single_shard_owns_everything(self):
        assert partition_cells(["b", "a"], 1) == [["a", "b"]]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_cells(["a"], 0)
        with pytest.raises(ValueError):
            partition_cells([], 2)


class TestPlacementPlan:
    @pytest.mark.parametrize(
        "spec",
        [
            fleet_hotspot_world(n_clients=24, n_aps=4, duration_s=1.0, seed=0),
            fleet_hotspot_world(n_clients=16, n_aps=3, duration_s=1.0, seed=7),
            city_grid_world(
                n_clients=54, grid_rows=3, grid_cols=3, duration_s=1.0, seed=1
            ),
            tight_spec(0),
            tight_spec(1),
        ],
        ids=["corridor", "corridor-seed7", "grid", "overflow", "overflow-seed1"],
    )
    def test_plan_equals_real_fleet_admissions(self, spec):
        # The plan runs FleetCoordinator steering: assembling the real
        # (non-sharded) fleet must land every client on the cell the
        # plan predicted.  The tight-cap specs overflow past full cells.
        plan = placement_plan(spec)
        world = WorldBuilder(spec).build()
        actual = {
            client.name: world.association.site_of(client.name)
            for client in world.clients
        }
        assert actual == plan

    def test_overfull_deployment_raises_admission_error(self):
        # One 3x1 corridor cannot admit 200 contracted streams; the
        # planner must fail the same way assembly would.
        spec = fleet_hotspot_world(
            n_clients=200, n_aps=3, duration_s=1.0, seed=0
        )
        with pytest.raises(AdmissionError):
            placement_plan(spec)

    def test_non_fleet_spec_rejected(self):
        from repro.build.presets import hotspot_world

        with pytest.raises(ValueError):
            placement_plan(hotspot_world(n_clients=2))
