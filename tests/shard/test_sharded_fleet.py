"""The sharded fleet end-to-end: determinism, roaming QoS, store layout."""

import hashlib
import json
import os

import pytest

from repro.build.builder import WorldBuilder
from repro.build.presets import city_grid_world, fleet_hotspot_world
from repro.core.outcome import VOLATILE_TIMING_FIELDS
from repro.exp.jsonio import dumps_strict
from repro.exp.progress import read_progress
from repro.shard import placement_plan, run_sharded_fleet
from tests.shard.specs import tight_spec


def small_spec(seed=3, duration_s=30.0):
    return fleet_hotspot_world(
        n_clients=8, n_aps=4, duration_s=duration_s, seed=seed
    )



class TestByteIdentity:
    def test_merged_payload_identical_across_shard_counts(self):
        # The headline determinism contract: --shards chooses process
        # placement, never behaviour.  shards=1 is the inline reference;
        # 2 and 4 run real worker processes.
        spec = small_spec()
        reference = dumps_strict(
            run_sharded_fleet(spec, shards=1), indent=2, sort_keys=True
        )
        for shards in (2, 4):
            payload = dumps_strict(
                run_sharded_fleet(spec, shards=shards),
                indent=2,
                sort_keys=True,
            )
            assert payload == reference, f"shards={shards} diverged"

    def test_merged_record_carries_no_volatile_or_shard_fields(self):
        record = run_sharded_fleet(small_spec(), shards=1)["record"]
        for field in VOLATILE_TIMING_FIELDS:
            assert field not in record
        assert "shards" not in record

    def test_store_files_identical_across_shard_counts(self, tmp_path):
        spec = small_spec(duration_s=20.0)
        stores = {}
        for shards in (1, 2):
            store = tmp_path / f"s{shards}"
            run_sharded_fleet(spec, shards=shards, store_dir=str(store))
            files = {
                "merged.json": (store / "merged.json").read_text(),
            }
            for name in sorted(os.listdir(store / "shards")):
                files[f"shards/{name}"] = (
                    store / "shards" / name
                ).read_text()
            stores[shards] = files
        assert stores[1] == stores[2]
        # one partial per cell, regardless of worker count
        assert sum(1 for k in stores[1] if k.startswith("shards/")) == 4


class TestCrossShardRoaming:
    @pytest.fixture(scope="class")
    def results(self):
        spec = small_spec()
        classic = WorldBuilder(spec).run()
        sharded = run_sharded_fleet(spec, shards=2)
        return spec, classic, sharded

    def test_clients_actually_roam_across_shards(self, results):
        _spec, _classic, sharded = results
        record = sharded["record"]
        # Every world owns one cell, so any handoff is a cross-shard
        # migration that survived the request/grant protocol.
        assert record["handoffs"] >= 1
        assert record["handoff_timeline"]

    def test_qos_guard_holds_through_migration(self, results):
        _spec, _classic, sharded = results
        record = sharded["record"]
        assert record["qos_maintained"]
        assert all(
            c["underruns"] == 0 and c["underrun_time_s"] == 0.0
            for c in sharded["clients"]
        )

    def test_session_backlog_survives_migration(self, results):
        # Byte conservation against the single-process run: the same
        # spec and seed must deliver the same bursts and bytes to every
        # client even when the delivery crossed shard boundaries.
        _spec, classic, sharded = results
        classic_clients = {
            c.name: c for c in classic.clients
        }
        assert len(sharded["clients"]) == len(classic_clients)
        for entry in sharded["clients"]:
            twin = classic_clients[entry["name"]]
            assert entry["bytes_received"] == twin.bytes_received
            assert entry["bursts"] == twin.bursts
        record = sharded["record"]
        assert record["bytes_received"] == sum(
            c.bytes_received for c in classic.clients
        )
        assert record["bytes_received"] > 0

    def test_roaming_counters_match_classic_run(self, results):
        _spec, classic, sharded = results
        record = sharded["record"]
        assert record["handoffs"] == classic.extras["handoffs"]
        assert record["bursts"] == classic.summary_record()["bursts"]

    def test_record_keys_follow_the_classic_summary_record(self, results):
        # merge_partials writes the record's keys by hand; they must stay
        # the classic record's, in its order, less the wall-clock fields.
        _spec, classic, sharded = results
        expected = [
            key for key in classic.summary_record() if key not in VOLATILE_TIMING_FIELDS
        ]
        assert list(sharded["record"]) == expected


class TestMigrationBytePaths:
    # The merged payload of ``tight_spec`` at shards=1, pinned byte for
    # byte: declines and homecomings both move proxy bytes between
    # worlds, and a slip in either changes the record.  Only its
    # ``sim_events`` may move with a change that is meant to schedule
    # fewer kernel events.
    PINNED = {
        0: "6ea921ae4596439066ccd2f6dc3e5c3608d45d82942df516a72eec36238c5ec0",
        1: "2c9e9e1478c9662999eeb2f1c61190281f56520c28d1ca9c050dd4452df40a8d",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_decline_and_homecoming_payload_is_pinned(self, seed):
        spec = tight_spec(seed)
        merged = run_sharded_fleet(spec, shards=1)
        record = merged["record"]
        # Keep the fixture on both migration paths.
        assert record["handoffs_declined"] >= 1
        plan = placement_plan(spec)
        assert any(
            plan[client] == target
            for _t, client, _origin, target in record["handoff_timeline"]
        ), "no client came back to its planned cell"
        digest = hashlib.sha256(
            dumps_strict(merged, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert digest == self.PINNED[seed]


class TestCityGridScale:
    def test_city_grid_runs_sharded_and_identical(self):
        spec = city_grid_world(
            n_clients=36, grid_rows=2, grid_cols=2, duration_s=20.0, seed=0
        )
        one = dumps_strict(
            run_sharded_fleet(spec, shards=1), indent=2, sort_keys=True
        )
        four = dumps_strict(
            run_sharded_fleet(spec, shards=4), indent=2, sort_keys=True
        )
        assert one == four
        record = json.loads(one)["record"]
        assert record["n_aps"] == 4
        assert record["n_clients"] == 36
        assert record["qos_maintained"]


class TestStoreAndHeartbeats:
    def test_progress_heartbeats_have_shard_shape(self, tmp_path):
        store = tmp_path / "store"
        run_sharded_fleet(
            small_spec(duration_s=20.0),
            shards=2,
            store_dir=str(store),
            heartbeat_every=20,
        )
        beats = read_progress(str(store / "progress.jsonl"))
        shard_beats = [b for b in beats if b["kind"] == "shard"]
        assert shard_beats, "expected shard heartbeats"
        for beat in shard_beats:
            assert beat["shards"] == 2
            assert 0 <= beat["shard"] < 2
            assert beat["barrier"] <= beat["barriers"]
            assert beat["sim_time_s"] > 0
            assert beat["sim_events"] > 0
            # null (never inf/0-div) when wall time is unmeasurable
            assert beat["events_per_second"] is None or (
                beat["events_per_second"] > 0
            )
        assert beats[-1]["kind"] == "shard-end"

    def test_merged_json_round_trips(self, tmp_path):
        store = tmp_path / "store"
        merged = run_sharded_fleet(
            small_spec(duration_s=20.0), shards=1, store_dir=str(store)
        )
        on_disk = json.loads((store / "merged.json").read_text())
        assert on_disk == json.loads(
            dumps_strict(merged, indent=2, sort_keys=True)
        )


class TestValidation:
    def test_non_fleet_spec_rejected(self):
        from repro.build.presets import hotspot_world

        with pytest.raises(ValueError):
            run_sharded_fleet(hotspot_world(n_clients=2), shards=1)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            run_sharded_fleet(small_spec(), shards=0)
