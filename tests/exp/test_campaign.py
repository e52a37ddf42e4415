"""Campaign engine end-to-end: caching, resume, parallel determinism.

Real-scenario runs here use short durations and few clients so the
whole module stays in tier-1 time budgets; the cache/resume mechanics
are additionally exercised against a cheap fake scenario registered
just for these tests.
"""

import json
import os

import pytest

from repro.exp import (
    CampaignSpec,
    ResultStore,
    aggregate,
    campaign_payload,
    dump_json,
    register_scenario,
    run_campaign,
    scenario_names,
)
from repro.exp.runner import _chunksize

CALLS = []


class _FakeResult:
    def __init__(self, gain, seed):
        self.gain = gain
        self.seed = seed

    def summary_record(self):
        return {
            "label": f"fake[{self.gain}]",
            "wnic_power_w": 0.1 * self.gain + 0.001 * self.seed,
            "qos_maintained": True,
        }


def fake_scenario(gain=1, seed=0, obs=None):
    CALLS.append((gain, seed))
    return _FakeResult(gain, seed)


register_scenario("test-fake", fake_scenario)


def chunk_scenario(gain=1, seed=0, obs=None):
    """Healthy except for one run: gain 2 at seed 5 raises."""
    if (gain, seed) == (2, 5):
        raise ValueError("one bad run")
    return _FakeResult(gain, seed)


register_scenario("test-chunk", chunk_scenario)


def fake_spec(**overrides):
    kwargs = dict(
        name="fake-campaign",
        scenario="test-fake",
        grid={"gain": [1, 2, 3]},
        seeds=[0, 1],
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestCacheAndResume:
    def test_cold_run_executes_everything(self, tmp_path):
        CALLS.clear()
        with ResultStore(tmp_path / "s") as store:
            report = run_campaign(fake_spec(), store=store)
        assert (report.total, report.cached, report.executed) == (6, 0, 6)
        assert len(CALLS) == 6
        assert not any(r.from_cache for r in report.results)

    def test_rerun_is_all_cache_hits_zero_executions(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            first = run_campaign(fake_spec(), store=store)
        CALLS.clear()
        with ResultStore(tmp_path / "s") as store:
            second = run_campaign(fake_spec(), store=store)
        assert CALLS == []  # the acceptance criterion: zero re-executions
        assert (second.cached, second.executed) == (6, 0)
        assert all(r.from_cache for r in second.results)
        assert dump_json(campaign_payload(first)) == dump_json(
            campaign_payload(second)
        )

    def test_changed_axis_only_computes_the_new_points(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            run_campaign(fake_spec(), store=store)
        CALLS.clear()
        widened = fake_spec(grid={"gain": [1, 2, 3, 4]})
        with ResultStore(tmp_path / "s") as store:
            report = run_campaign(widened, store=store)
        assert sorted(CALLS) == [(4, 0), (4, 1)]
        assert (report.cached, report.executed) == (6, 2)

    def test_interrupted_campaign_resumes_from_last_whole_line(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            complete = run_campaign(fake_spec(), store=store)
            path = store.path
        # Simulate an interrupt: the final append died mid-line.
        lines = open(path, "rb").read().splitlines(keepends=True)
        open(path, "wb").write(b"".join(lines[:4]) + lines[4][:20])
        CALLS.clear()
        with ResultStore(tmp_path / "s") as store:
            resumed = run_campaign(fake_spec(), store=store)
        assert (resumed.cached, resumed.executed) == (4, 2)
        assert len(CALLS) == 2
        assert dump_json(campaign_payload(resumed)) == dump_json(
            campaign_payload(complete)
        )

    def test_refresh_ignores_cache_but_rewrites_it(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            run_campaign(fake_spec(), store=store)
        CALLS.clear()
        with ResultStore(tmp_path / "s") as store:
            report = run_campaign(fake_spec(), store=store, refresh=True)
        assert (report.cached, report.executed) == (0, 6)
        assert len(CALLS) == 6

    def test_each_run_is_hashed_once(self, tmp_path, monkeypatch):
        import repro.exp.spec as spec_module

        hashed = []
        real_run_key = spec_module.run_key

        def counting_run_key(*args):
            hashed.append(args)
            return real_run_key(*args)

        monkeypatch.setattr(spec_module, "run_key", counting_run_key)
        for phase, cached in (("cold", 0), ("warm", 6)):
            hashed.clear()
            with ResultStore(tmp_path / "s") as store:
                report = run_campaign(fake_spec(), store=store, jobs=1)
            assert report.cached == cached, phase
            assert len(hashed) == report.total == 6, phase

    def test_no_store_always_executes(self):
        CALLS.clear()
        run_campaign(fake_spec())
        run_campaign(fake_spec())
        assert len(CALLS) == 12


class TestGuards:
    def test_obs_with_pool_rejected(self):
        with pytest.raises(ValueError, match="jobs=1"):
            run_campaign(fake_spec(), jobs=2, obs=object())

    def test_obs_with_collect_metrics_rejected(self):
        with pytest.raises(ValueError, match="per-run obs"):
            run_campaign(fake_spec(collect_metrics=True), obs=object())

    def test_nonpositive_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(fake_spec(), jobs=0)

    def test_builtin_scenarios_registered(self):
        for name in ("hotspot", "unscheduled", "psm-baseline"):
            assert name in scenario_names()


def hotspot_spec(collect_metrics=False):
    return CampaignSpec(
        name="determinism",
        scenario="hotspot",
        base={"duration_s": 4.0, "n_clients": 1},
        grid={"burst_bytes": [20_000, 40_000]},
        seeds=[0, 1],
        collect_metrics=collect_metrics,
    )


class TestParallelDeterminism:
    def test_jobs4_equals_jobs1_byte_identical(self):
        serial = run_campaign(hotspot_spec(), jobs=1)
        parallel = run_campaign(hotspot_spec(), jobs=4)
        assert serial.records() == parallel.records()
        assert dump_json(campaign_payload(serial)) == dump_json(
            campaign_payload(parallel)
        )

    def test_parallel_fills_store_serial_rerun_all_hits(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            parallel = run_campaign(hotspot_spec(), store=store, jobs=4)
        assert parallel.executed == 4
        with ResultStore(tmp_path / "s") as store:
            resumed = run_campaign(hotspot_spec(), store=store, jobs=1)
        assert (resumed.cached, resumed.executed) == (4, 0)
        assert dump_json(campaign_payload(parallel)) == dump_json(
            campaign_payload(resumed)
        )

    def test_collect_metrics_rides_along_in_workers(self):
        report = run_campaign(hotspot_spec(collect_metrics=True), jobs=2)
        for result in report.results:
            assert isinstance(result.record["metrics"], dict)
            assert result.record["metrics"]
        merged = aggregate(report.results)[0].metrics
        assert merged  # snapshots merged per grid point


def chunked_hotspot_spec():
    """24 short hotspot runs: chunks of 3 runs per task at jobs=2."""
    return CampaignSpec(
        name="chunked",
        scenario="hotspot",
        base={"duration_s": 1.0, "n_clients": 1},
        grid={"burst_bytes": [20_000, 40_000], "scheduler": ["edf", "round-robin"]},
        seeds=list(range(6)),
    )


def run_into_store(spec, directory, jobs):
    order = []
    with ResultStore(directory) as store:
        report = run_campaign(
            spec, store=store, jobs=jobs,
            on_run=lambda run, cached: order.append((run.index, cached)),
        )
        path = store.path
    with open(path, "rb") as stream:
        return report, stream.read(), order


class TestChunkedDispatch:
    def test_chunk_rule(self):
        assert _chunksize(4, 2) == 1
        assert _chunksize(24, 2) == 3
        assert _chunksize(1152, 2) == 8
        assert _chunksize(1, 1) == 1

    def test_jobs2_chunks_match_jobs1_exactly(self, tmp_path):
        spec = chunked_hotspot_spec()
        assert len(spec.runs()) == 24 and _chunksize(24, 2) > 1
        serial, serial_bytes, serial_order = run_into_store(spec, tmp_path / "a", 1)
        parallel, parallel_bytes, parallel_order = run_into_store(
            spec, tmp_path / "b", 2
        )
        assert parallel.failed == 0 and parallel.executed == 24
        assert serial.records() == parallel.records()
        assert serial_bytes == parallel_bytes
        assert serial_order == parallel_order == [(i, False) for i in range(24)]

    def test_one_run_heartbeat_per_run_in_expansion_order(self, tmp_path):
        spec = chunked_hotspot_spec()
        run_into_store(spec, tmp_path / "s", 2)
        with open(os.path.join(tmp_path / "s", "progress.jsonl")) as stream:
            beats = [json.loads(line) for line in stream]
        runs = [beat for beat in beats if beat["kind"] == "run"]
        assert [beat["index"] for beat in runs] == list(range(24))
        assert [beat["key"] for beat in runs] == [run.key for run in spec.runs()]
        assert all(beat["outcome"] == "ok" for beat in runs)

    def test_raising_run_is_quarantined_alone(self, tmp_path):
        spec = CampaignSpec(
            name="chunk-failure",
            scenario="test-chunk",
            grid={"gain": [1, 2]},
            seeds=list(range(12)),
        )
        assert _chunksize(24, 2) > 1
        with ResultStore(tmp_path / "s") as store:
            report = run_campaign(spec, store=store, jobs=2)
        assert (report.executed, report.failed) == (24, 1)
        (failure,) = report.failures()
        assert (failure.params, failure.seed) == ({"gain": 2}, 5)
        assert failure.error["message"] == "one bad run"
        assert all(r.record for r in report.results if r is not failure)
        with ResultStore(tmp_path / "s") as store:
            retried = run_campaign(spec, store=store, jobs=2)
        assert (retried.cached, retried.executed, retried.quarantined) == (23, 1, 1)


class TestCampaignCli:
    def run_cli(self, argv, capsys):
        from repro.__main__ import main

        code = main(argv)
        assert code == 0
        return capsys.readouterr()

    def test_campaign_table_and_cache_line(self, tmp_path, capsys):
        argv = [
            "campaign", "--scenario", "hotspot",
            "--param", "burst_bytes=20000,40000",
            "--set", "duration_s=4", "--set", "n_clients=1",
            "--seeds", "1", "--jobs", "2",
            "--store", str(tmp_path / "c"), "--name", "cli-demo",
        ]
        first = self.run_cli(argv, capsys)
        assert "Campaign cli-demo" in first.out
        assert "burst_bytes" in first.out
        assert "2 cached, 0 executed" not in first.err
        second = self.run_cli(argv, capsys)
        assert "2 cached, 0 executed" in second.err
        assert first.out == second.out

    def test_campaign_json_payload_shape(self, tmp_path, capsys):
        out = self.run_cli(
            [
                "campaign", "--scenario", "unscheduled",
                "--param", 'interface=["wlan"]',
                "--set", "duration_s=4", "--set", "n_clients=1",
                "--json",
            ],
            capsys,
        )
        payload = json.loads(out.out)
        assert payload["campaign"]["scenario"] == "unscheduled"
        assert payload["version"]
        point = payload["points"][0]
        assert point["params"]["interface"] == "wlan"
        assert "wnic_power_w" in point["stats"]

    def test_campaign_csv_artifact(self, tmp_path, capsys):
        csv_path = tmp_path / "grid.csv"
        self.run_cli(
            [
                "campaign", "--scenario", "test-fake",
                "--param", "gain=1,2", "--seeds", "2",
                "--csv", str(csv_path),
            ],
            capsys,
        )
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("gain,n,wnic_power_w_mean")
        assert len(lines) == 3

    def test_version_flag(self, capsys):
        from repro import package_version
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert package_version() in capsys.readouterr().out

    def test_package_version_is_the_in_tree_version(self):
        import repro

        assert repro.package_version() == repro.__version__

    def test_sweep_bursts_still_runs_through_engine(self, tmp_path, capsys):
        argv = [
            "sweep-bursts", "--duration", "4", "--clients", "1",
            "--jobs", "2", "--store", str(tmp_path / "s"), "--json",
        ]
        first = self.run_cli(argv, capsys)
        rows = json.loads(first.out)
        assert [r["burst_bytes"] for r in rows] == [
            10_000, 20_000, 40_000, 80_000, 160_000,
        ]
        second = self.run_cli(argv, capsys)
        assert first.out == second.out
        assert "5 cached, 0 executed" in second.err
