"""Runner failure semantics: envelopes, quarantine, retries, timeouts.

A raising grid point must not abort a campaign: it becomes a structured
error envelope, partial results aggregate with an explicit failed
count, and the store quarantines the failure so the next invocation
retries exactly that run while healthy runs stay cached.
"""

import json
import math
import time

import pytest

from repro.exp import (
    CampaignSpec,
    ResultStore,
    RunTimeoutError,
    aggregate,
    campaign_payload,
    dump_json,
    dumps_strict,
    error_envelope,
    guarded_call,
    register_scenario,
    run_campaign,
    sanitize_nonfinite,
)

CALLS = []


class _Result:
    def __init__(self, gain, seed):
        self.gain = gain
        self.seed = seed
        # Attributes a shared ObsSession reads in record().
        self.label = f"flaky[{gain}]"
        self.duration_s = 1.0
        self.radios = {}

    def summary_record(self):
        return {
            "label": f"flaky[{self.gain}]",
            "wnic_power_w": 0.1 * self.gain + 0.001 * self.seed,
            "qos_maintained": True,
        }


def flaky_scenario(gain=1, seed=0, obs=None):
    """Raises deterministically for gain=13; healthy otherwise."""
    CALLS.append((gain, seed))
    if gain == 13:
        raise ValueError(f"unlucky gain {gain}")
    return _Result(gain, seed)


register_scenario("test-flaky", flaky_scenario)


def flaky_spec(**overrides):
    kwargs = dict(
        name="flaky-campaign",
        scenario="test-flaky",
        grid={"gain": [1, 13, 2]},
        seeds=[0],
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestErrorEnvelopes:
    def test_campaign_completes_with_partial_results(self):
        CALLS.clear()
        report = run_campaign(flaky_spec())
        assert len(CALLS) == 3  # every run attempted
        assert (report.total, report.executed, report.failed) == (3, 3, 1)
        ok = [r for r in report.results if r.ok]
        assert [r.params["gain"] for r in ok] == [1, 2]

    def test_envelope_carries_type_message_and_traceback(self):
        report = run_campaign(flaky_spec())
        (failure,) = report.failures()
        assert failure.spec.kwargs == {"gain": 13}
        assert failure.record == {}
        error = failure.error
        assert error["type"] == "ValueError"
        assert error["message"] == "unlucky gain 13"
        assert error["attempts"] == 1
        assert any("flaky_scenario" in frame for frame in error["traceback"])
        json.dumps(error)  # envelope must be JSON-clean

    def test_parallel_failure_envelopes_match_serial(self):
        serial = run_campaign(flaky_spec(), jobs=1)
        parallel = run_campaign(flaky_spec(), jobs=3)
        assert dump_json(campaign_payload(serial)) == dump_json(
            campaign_payload(parallel)
        )
        assert serial.failures()[0].error == parallel.failures()[0].error

    def test_status_line_reports_failures(self):
        line = run_campaign(flaky_spec()).status_line()
        assert "3 runs" in line and "1 failed" in line


class TestQuarantine:
    def test_failed_run_retried_next_invocation_healthy_stay_cached(
        self, tmp_path
    ):
        with ResultStore(tmp_path / "s") as store:
            first = run_campaign(flaky_spec(), store=store)
        assert (first.cached, first.executed, first.failed) == (0, 3, 1)
        CALLS.clear()
        with ResultStore(tmp_path / "s") as store:
            second = run_campaign(flaky_spec(), store=store)
        # The acceptance criterion: only the quarantined run re-executes.
        assert CALLS == [(13, 0)]
        assert (second.cached, second.executed, second.failed) == (2, 1, 1)
        assert second.quarantined == 1

    def test_quarantine_line_has_error_and_null_record(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            run_campaign(flaky_spec(), store=store)
            path = store.path
        envelopes = [json.loads(line) for line in open(path)]
        failed = [e for e in envelopes if e.get("error") is not None]
        assert len(failed) == 1
        assert failed[0]["record"] is None
        assert failed[0]["error"]["type"] == "ValueError"
        assert failed[0]["params"] == {"gain": 13}

    def test_payload_stable_across_resume_with_same_failure(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            first = run_campaign(flaky_spec(), store=store)
        with ResultStore(tmp_path / "s") as store:
            second = run_campaign(flaky_spec(), store=store)
        assert dump_json(campaign_payload(first)) == dump_json(
            campaign_payload(second)
        )


class TestAggregationOfFailures:
    def test_failed_point_attributed_not_averaged(self):
        report = run_campaign(flaky_spec(seeds=[0, 1]))
        summaries = aggregate(report.results)
        by_gain = {s.params["gain"]: s for s in summaries}
        assert by_gain[1].failed == 0 and by_gain[1].n == 2
        assert by_gain[13].failed == 2 and by_gain[13].n == 0
        assert by_gain[13].stats == {}
        # A fully-failed point demonstrated no QoS.
        assert by_gain[13].qos_maintained is False
        assert by_gain[1].qos_maintained is True

    def test_payload_lists_failed_runs_with_attribution(self):
        payload = campaign_payload(run_campaign(flaky_spec()))
        assert len(payload["failed_runs"]) == 1
        failed = payload["failed_runs"][0]
        assert failed["params"] == {"gain": 13}
        assert failed["seed"] == 0
        assert failed["error"]["type"] == "ValueError"
        point = [
            p for p in payload["points"] if p["params"] == {"gain": 13}
        ][0]
        assert point["failed"] == 1

    def test_healthy_campaign_has_empty_failed_runs(self):
        payload = campaign_payload(
            run_campaign(flaky_spec(grid={"gain": [1, 2]}))
        )
        assert payload["failed_runs"] == []


RETRY_STATE = {"failures_left": 0, "calls": 0}


def retry_scenario(seed=0, obs=None):
    RETRY_STATE["calls"] += 1
    if RETRY_STATE["failures_left"] > 0:
        RETRY_STATE["failures_left"] -= 1
        raise RuntimeError("transient")
    return _Result(1, seed)


register_scenario("test-retry", retry_scenario)


class TestRetriesAndTimeouts:
    def test_transient_failure_recovered_by_retry(self):
        RETRY_STATE.update(failures_left=2, calls=0)
        spec = CampaignSpec(name="r", scenario="test-retry", seeds=[0])
        report = run_campaign(spec, retries=2)
        assert report.failed == 0
        assert RETRY_STATE["calls"] == 3

    def test_retries_exhausted_envelope_counts_attempts(self):
        RETRY_STATE.update(failures_left=99, calls=0)
        spec = CampaignSpec(name="r", scenario="test-retry", seeds=[0])
        report = run_campaign(spec, retries=2)
        (failure,) = report.failures()
        assert failure.error["attempts"] == 3

    def test_backoff_sleeps_exponentially(self, monkeypatch):
        naps = []
        monkeypatch.setattr(time, "sleep", naps.append)
        outcome = guarded_call(
            lambda: (_ for _ in ()).throw(RuntimeError("x")),
            retries=3,
            backoff_s=0.1,
        )
        assert "error" in outcome
        assert naps == pytest.approx([0.1, 0.2, 0.4])

    def test_run_timeout_produces_timeout_envelope(self):
        def hang():
            time.sleep(5.0)
            return {}

        outcome = guarded_call(hang, timeout_s=0.1)
        assert outcome["error"]["type"] == "RunTimeoutError"
        assert "0.1" in outcome["error"]["message"]

    def test_timeout_cleared_after_fast_call(self):
        import signal

        assert guarded_call(lambda: {"ok": 1}, timeout_s=5.0) == {
            "record": {"ok": 1}
        }
        # The itimer must be disarmed once the call returns.
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    def test_timeout_error_is_runtime_error(self):
        assert issubclass(RunTimeoutError, RuntimeError)

    def test_negative_policy_rejected(self):
        spec = flaky_spec()
        with pytest.raises(ValueError, match="retries"):
            run_campaign(spec, retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            run_campaign(spec, retry_backoff_s=-0.5)

    def test_keyboard_interrupt_propagates(self):
        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            guarded_call(interrupted, retries=5)


class TestErrorEnvelopeHelper:
    def test_traceback_frames_are_basenames(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            envelope = error_envelope(exc, attempts=2)
        assert envelope["attempts"] == 2
        for frame in envelope["traceback"]:
            assert "/" not in frame.split(":")[0]


class TestStrictJson:
    def test_sanitize_replaces_nonfinite(self):
        dirty = {"a": math.nan, "b": [1.0, math.inf], "c": {"d": -math.inf}}
        assert sanitize_nonfinite(dirty) == {
            "a": None, "b": [1.0, None], "c": {"d": None},
        }

    def test_sanitize_leaves_bools_and_ints_alone(self):
        assert sanitize_nonfinite({"flag": True, "n": 3}) == {
            "flag": True, "n": 3,
        }

    def test_dumps_strict_sanitizes_by_default(self):
        text = dumps_strict({"x": math.nan})
        assert json.loads(text) == {"x": None}
        assert "NaN" not in text

    def test_dumps_strict_raise_policy(self):
        with pytest.raises(ValueError):
            dumps_strict({"x": math.inf}, nonfinite="raise")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="nonfinite"):
            dumps_strict({}, nonfinite="ignore")

    def test_dump_json_is_strict(self):
        payload = json.loads(dump_json({"x": math.nan}))
        assert payload == {"x": None}

    def test_store_lines_are_strict_json(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.put("k", {"record": {"power": math.nan}})
            path = store.path
        line = open(path).read().strip()
        assert "NaN" not in line
        assert json.loads(line)["record"]["power"] is None


NAN_SCENARIO_RECORD = {"label": "nan", "wnic_power_w": math.nan,
                       "qos_maintained": True}


def nan_scenario(seed=0, obs=None):
    class R:
        def summary_record(self):
            return dict(NAN_SCENARIO_RECORD)

    return R()


register_scenario("test-nan", nan_scenario)


def labelled_scenario(gain=1, seed=0, obs=None):
    """A healthy run whose record carries the session's run label."""
    result = _Result(gain, seed)
    label = obs._run_label
    result.summary_record = lambda: {"run_label": label}
    return result


register_scenario("test-labelled", labelled_scenario)


class TestObsLifecycle:
    def test_execute_run_closes_obs_on_failure(self):
        from repro.exp.runner import WorkItem, execute_run

        def item(gain):
            return WorkItem("test-flaky", {"gain": gain}, 0, True, None, None, "x")

        with pytest.raises(ValueError):
            execute_run(item(13))
        # A fresh metrics run must start from a clean registry: the
        # failed run's collector was closed, not leaked.
        record = execute_run(item(1))
        assert isinstance(record["metrics"], dict)

    def test_execute_run_on_shared_session_begins_records_and_ends(self):
        from repro.exp.runner import WorkItem, execute_run
        from repro.obs import ObsSession

        def item(scenario, gain):
            return WorkItem(scenario, {"gain": gain}, 0, False, None, None, f"run/{gain}")

        obs = ObsSession()
        with pytest.raises(ValueError):
            execute_run(item("test-flaky", 13), obs)
        assert obs._run_label is None
        record = execute_run(item("test-labelled", 2), obs)
        # The run saw its label; only the healthy run was recorded; and
        # the label was dropped after it.
        assert record["run_label"] == "run/2"
        assert [run[0] for run in obs._chrome_runs] == ["flaky[2]"]
        assert obs._run_label is None
        obs.close()

    def test_shared_obs_run_label_cleared_after_failure(self):
        from repro.obs import ObsSession

        obs = ObsSession()
        report = run_campaign(flaky_spec(), obs=obs)
        assert report.failed == 1
        # end_run ran on the error path: no dangling label.
        assert obs._run_label is None
        obs.close()

    def test_end_run_is_idempotent(self):
        from repro.obs import ObsSession

        obs = ObsSession()
        obs.begin_run("x")
        obs.end_run()
        obs.end_run()
        assert obs._run_label is None
        obs.close()

    def test_figure_run_label_cleared_after_failure(self, monkeypatch):
        import repro.__main__ as cli
        from repro.obs import ObsSession

        class RaisingBuilder:
            def __init__(self, spec):
                pass

            def run(self, obs=None):
                raise RuntimeError("world failed")

        monkeypatch.setattr(cli, "WorldBuilder", RaisingBuilder)
        obs = ObsSession()
        with pytest.raises(RuntimeError):
            cli._run_world(obs, "fig2/hotspot", spec=None)
        assert obs._run_label is None
        obs.close()
