"""Campaign heartbeats, timeseries determinism across jobs, HTML report."""

import io
import json
import re

from repro.core.outcome import VOLATILE_TIMING_FIELDS
from repro.exp import (
    CampaignSpec,
    ResultStore,
    StderrProgress,
    read_progress,
    run_campaign,
)
from repro.exp.report import load_report_data, render_report, write_report


def hotspot_spec(**overrides):
    kwargs = dict(
        name="hb",
        scenario="hotspot",
        base={"duration_s": 5.0},
        grid={"n_clients": [1, 2]},
        seeds=[0],
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestHeartbeats:
    def test_campaign_lifecycle_lands_in_progress_jsonl(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(hotspot_spec(), store=store, jobs=1)
        store.close()
        beats = read_progress(str(tmp_path / "store" / "progress.jsonl"))
        kinds = [b["kind"] for b in beats]
        assert kinds[0] == "campaign-start"
        assert kinds[-1] == "campaign-end"
        assert kinds.count("run") == 2
        start = beats[0]
        assert start["campaign"] == "hb"
        assert start["total"] == 2 and start["jobs"] == 1
        for beat in beats[1:-1]:
            assert beat["outcome"] == "ok"
            assert beat["wall_time_s"] > 0
            assert beat["sim_events"] > 0
            assert beat["events_per_second"] > 0
            assert beat["worker"]
            assert beat["key"] and beat["label"].startswith("hb/")
        end = beats[-1]
        assert end["executed"] == 2 and end["cached"] == 0
        assert end["failed"] == 0 and end["wall_time_s"] > 0

    def test_serial_campaigns_name_one_worker_with_or_without_obs(self, tmp_path):
        from repro.obs import ObsSession

        store_dir = str(tmp_path / "store")
        for n_clients, obs in ((1, None), (2, ObsSession())):
            store = ResultStore(store_dir)
            run_campaign(
                hotspot_spec(grid={"n_clients": [n_clients]}),
                store=store,
                jobs=1,
                obs=obs,
            )
            store.close()
        runs = [
            b for b in read_progress(store_dir + "/progress.jsonl")
            if b["kind"] == "run"
        ]
        assert len(runs) == 2
        assert all(beat["wall_time_s"] > 0 for beat in runs)
        assert len({beat["worker"] for beat in runs}) == 1
        data = load_report_data(store_dir)
        assert len({run["worker"] for run in data["runs"]}) == 1

    def test_resume_appends_cached_heartbeats(self, tmp_path):
        store_dir = str(tmp_path / "store")
        store = ResultStore(store_dir)
        run_campaign(hotspot_spec(), store=store, jobs=1)
        store.close()
        store = ResultStore(store_dir)
        run_campaign(hotspot_spec(), store=store, jobs=1)
        store.close()
        beats = read_progress(store_dir + "/progress.jsonl")
        outcomes = [b["outcome"] for b in beats if b["kind"] == "run"]
        assert outcomes == ["ok", "ok", "cached", "cached"]

    def test_failed_run_heartbeat_carries_error_type(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        spec = hotspot_spec(grid={"n_clients": [0, 1]})  # 0 raises
        run_campaign(spec, store=store, jobs=1)
        store.close()
        beats = read_progress(str(tmp_path / "store" / "progress.jsonl"))
        failed = [b for b in beats if b.get("outcome") == "failed"]
        assert len(failed) == 1
        assert failed[0]["error_type"] == "SpecError"
        assert beats[-1]["failed"] == 1

    def test_stored_records_stay_free_of_wall_clock_fields(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(hotspot_spec(), store=store, jobs=1)
        for key in store:
            record = store.get(key)["record"]
            for field in VOLATILE_TIMING_FIELDS:
                assert field not in record
            assert record["sim_events"] > 0  # deterministic, stays
        store.close()

    def test_zero_wall_time_yields_null_events_per_second(self, tmp_path):
        # Cache hits and sub-clock-resolution runs have no measurable
        # wall time; the heartbeat must carry null, never 0.0 or the
        # inf a caller gets from dividing by zero.
        from repro.exp.progress import CampaignProgress, ProgressLog
        from repro.exp.spec import RunSpec

        path = str(tmp_path / "progress.jsonl")
        log = ProgressLog(path, campaign="null-eps")
        progress = CampaignProgress(total=2, log=log)
        run = RunSpec(scenario="hotspot", params=(), seed=0, index=0)
        progress.run_finished(
            run, "cached", wall_time_s=0.0, events_per_second=0.0
        )
        progress.run_finished(
            run, "ok", wall_time_s=0.0, events_per_second=float("inf")
        )
        log.close()
        beats = [b for b in read_progress(path) if b["kind"] == "run"]
        assert [b["events_per_second"] for b in beats] == [None, None]
        # raw JSON spells it null, not NaN/Infinity
        raw = (tmp_path / "progress.jsonl").read_text()
        assert '"events_per_second":null' in raw
        assert "Infinity" not in raw

    def test_stderr_line_silent_without_a_tty(self):
        stream = io.StringIO()  # not a tty
        line = StderrProgress(total=3, stream=stream)
        line.update(1, ok=1, failed=0, cached=0)
        line.finish()
        assert stream.getvalue() == ""


class TestTimeseriesAcrossJobs:
    def test_jobs1_and_jobs4_timeseries_byte_identical(self, tmp_path):
        spec = hotspot_spec(timeseries_interval_s=1.0)
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        for directory, jobs in ((serial_dir, 1), (parallel_dir, 4)):
            store = ResultStore(str(directory))
            run_campaign(spec, store=store, jobs=jobs)
            store.close()
        serial_files = sorted(p.name for p in (serial_dir / "timeseries").iterdir())
        parallel_files = sorted(
            p.name for p in (parallel_dir / "timeseries").iterdir()
        )
        assert serial_files == parallel_files and len(serial_files) == 2
        for name in serial_files:
            assert (serial_dir / "timeseries" / name).read_bytes() == (
                parallel_dir / "timeseries" / name
            ).read_bytes()

    def test_timeseries_campaign_requires_a_store(self):
        import pytest

        with pytest.raises(ValueError, match="store"):
            run_campaign(hotspot_spec(timeseries_interval_s=1.0), store=None)

    def test_interval_in_hash_only_when_sampling(self):
        plain = hotspot_spec().runs()
        sampled = hotspot_spec(timeseries_interval_s=1.0).runs()
        from repro.exp import run_key

        for run in plain:
            # None interval hashes identically to the pre-timeseries key
            # format: existing stores and caches stay valid.
            assert run.key == run_key(
                run.scenario, run.kwargs, run.seed, run.collect_metrics
            )
        assert {r.key for r in plain}.isdisjoint(r.key for r in sampled)


class TestHtmlReport:
    def populated_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        store = ResultStore(store_dir)
        run_campaign(
            hotspot_spec(
                grid={"n_clients": [0, 1]}, timeseries_interval_s=1.0
            ),
            store=store,
            jobs=1,
        )
        store.close()
        return store_dir

    def test_load_joins_records_heartbeats_and_timeseries(self, tmp_path):
        data = load_report_data(self.populated_store(tmp_path))
        assert len(data["runs"]) == 2
        failed = [r for r in data["runs"] if r["error"] is not None]
        assert len(failed) == 1
        assert failed[0]["error"]["type"] == "SpecError"
        # Heartbeat joins: labels and timing come from progress.jsonl.
        ok = next(r for r in data["runs"] if r["error"] is None)
        assert ok["label"].startswith("hb/")
        assert ok["events_per_second"] > 0
        assert len(data["timeseries"]) == 1  # failed run wrote no samples

    def test_a_resumed_store_keeps_its_executed_timing(self, tmp_path):
        store_dir = str(tmp_path / "store")
        spec = hotspot_spec(grid={"n_clients": [1, 2]}, seeds=[0, 1])
        for _ in ("cold", "warm"):
            store = ResultStore(store_dir)
            run_campaign(spec, store=store, jobs=1)
            store.close()
        beats = read_progress(store_dir + "/progress.jsonl")
        executed = {
            b["key"]: b for b in beats
            if b["kind"] == "run" and b["outcome"] == "ok"
        }
        assert [b["outcome"] for b in beats if b["kind"] == "run"] == (
            ["ok"] * 4 + ["cached"] * 4
        )
        data = load_report_data(store_dir)
        assert len(data["runs"]) == 4
        for run in data["runs"]:
            beat = executed[run["key"]]
            assert run["events_per_second"] == beat["events_per_second"] > 0
            assert run["worker"] == beat["worker"] != ""
            assert run["label"] == beat["label"]
        page = render_report(data)
        assert "Mean throughput" in page

    def test_report_is_one_self_contained_page(self, tmp_path):
        out = tmp_path / "report.html"
        summary = write_report(self.populated_store(tmp_path), str(out))
        assert summary["runs"] == 2 and summary["failed"] == 1
        page = out.read_text()
        for anchor in ('id="overview"', 'id="runs"', 'id="failures"',
                       'id="timeseries"', 'id="kernel"'):
            assert anchor in page
        # Self-contained: no external scripts, styles, or fonts.
        assert not re.search(r'(?:src|href)\s*=\s*["\']https?://', page)
        match = re.search(
            r'<script type="application/json" id="report-data">(.*?)'
            r"</script>",
            page,
            re.S,
        )
        payload = json.loads(match.group(1).replace("<\\/", "</"))
        assert len(payload["timeseries"]) == 1
        (block,) = payload["timeseries"].values()
        assert block["rows"] and "time_s" in block["columns"]

    def test_embedded_json_survives_script_breaking_content(self, tmp_path):
        # A run label containing "</script>" must not terminate the data
        # block early (the classic inline-JSON injection).
        data = load_report_data(self.populated_store(tmp_path))
        data["runs"][0]["label"] = "evil</script><script>alert(1)"
        page = render_report(data)
        match = re.search(
            r'<script type="application/json" id="report-data">(.*?)'
            r"</script>",
            page,
            re.S,
        )
        payload = json.loads(match.group(1).replace("<\\/", "</"))
        assert payload["runs"][0]["label"].startswith("evil</script>")
