"""Campaign runner: cache lookup, worker-pool fan-out, result assembly.

:func:`run_campaign` expands a :class:`~repro.exp.spec.CampaignSpec`
into runs, serves every run whose content hash is already in the
:class:`~repro.exp.store.ResultStore`, and fans the misses out across a
``multiprocessing`` pool (``jobs=1`` executes in-process).  Results come
back in expansion order regardless of which worker finished first, so
``--jobs 1`` and ``--jobs N`` produce byte-identical campaign output —
each run is a pure function of ``(scenario, params, seed)`` and the
assembly order is fixed by the spec.

Interrupted campaigns resume for free: completed runs were flushed to
the store line-by-line, so the next invocation executes only what is
missing.

The scenario registry (and with it the whole simulator) and
``multiprocessing`` are imported only where a run executes or a pool
starts.  A campaign served from its store never loads them, and a
parallel campaign's parent leaves the simulator to its workers.

Failure semantics
-----------------
A raising run no longer aborts the campaign.  Each run executes behind
a guard that converts exceptions into a structured *error envelope*
(exception type, message, shortened traceback) and the campaign
completes with partial results; :func:`~repro.exp.aggregate.aggregate`
folds only the healthy runs and reports the failed count.  Failed runs
are *quarantined* in the store: their envelope is persisted (so the
failure is attributable after the fact) but never served as a cache
hit — the next invocation retries exactly the quarantined runs while
healthy runs stay cached.  Optional per-run wall-clock timeouts
(SIGALRM-based, main-thread POSIX only) and in-worker retries with
exponential backoff handle hangs and transient faults.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

from repro import package_version
from repro._domain import Domain
from repro.core.outcome import VOLATILE_TIMING_FIELDS
from repro.exp.progress import CampaignProgress, ProgressLog, StderrProgress
from repro.exp.spec import CampaignSpec, RunSpec, canonical_params
from repro.exp.store import ResultStore


class WorkItem(NamedTuple):
    """One pending run as shipped to :func:`execute_run` (pool-picklable);
    ``timeseries_path`` None means the run samples no timeseries."""

    scenario: str
    params: Dict[str, Any]
    seed: int
    collect_metrics: bool
    timeseries_interval_s: Optional[float]
    timeseries_path: Optional[str]
    label: str


#: Traceback frames kept in an error envelope (innermost last).
_TRACEBACK_FRAMES = 4

#: Most runs shipped to a pool worker per task.  One task per run pays a
#: pickle-and-pipe round trip per run: on the e2e benchmark's
#: campaign-cold (1152 hotspot runs of about 2 ms each, 2 workers, a
#: 2-vCPU host with Python 3.11) chunks of 8 cut the campaign's run time
#: by about 15 % against one run per task, and chunks of 32 measured the
#: same within noise.  The smaller cap is kept because it also bounds
#: the tail imbalance (one worker busy while the other idles) to 8 runs.
_MAX_CHUNK = 8


def _chunksize(pending: int, workers: int) -> int:
    """Runs per pool task for ``pending`` runs spread over ``workers``.

    At least four tasks per worker, so small campaigns keep one run per
    task and still balance; never more than :data:`_MAX_CHUNK`.
    """
    return max(1, min(_MAX_CHUNK, pending // (4 * workers)))


class RunTimeoutError(RuntimeError):
    """A run exceeded its wall-clock budget."""


@dataclass
class RunResult:
    """One run's outcome plus its provenance.

    Exactly one of ``record`` / ``error`` is meaningful: a failed run
    carries an empty record and a non-None error envelope.
    """

    spec: RunSpec
    record: Dict[str, Any]
    from_cache: bool = False
    error: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def params(self) -> Dict[str, Any]:
        return self.spec.kwargs

    @property
    def seed(self) -> int:
        return self.spec.seed


@dataclass
class CampaignReport:
    """Everything :func:`run_campaign` hands back to callers."""

    spec: CampaignSpec
    results: List[RunResult] = field(default_factory=list)
    cached: int = 0
    executed: int = 0
    failed: int = 0
    quarantined: int = 0
    version: str = ""
    jobs: int = 1

    @property
    def total(self) -> int:
        return len(self.results)

    def records(self) -> List[Dict[str, Any]]:
        return [r.record for r in self.results]

    def failures(self) -> List[RunResult]:
        """The failed runs, in expansion order."""
        return [r for r in self.results if r.error is not None]

    def status_line(self) -> str:
        """One-line progress summary (printed to stderr by the CLI)."""
        return (
            f"campaign {self.spec.name!r}: {self.total} runs "
            f"({self.cached} cached, {self.executed} executed, "
            f"{self.failed} failed, jobs={self.jobs}, "
            f"version={self.version})"
        )


def recorded_run(obs, label: str, call: Callable[[], Any]) -> Any:
    """``call()`` as run ``label`` of the shared session ``obs``.

    The run is begun on the session, its result recorded, and the run
    ended in a ``finally``, so a raising run cannot leave its label on
    later trace lines.  Without a session it is a plain ``call()``.
    """
    if obs is None:
        return call()
    obs.begin_run(label)
    try:
        return obs.record(call())
    finally:
        obs.end_run()


def execute_run(item: WorkItem, obs=None) -> Dict[str, Any]:
    """Run one scenario and summarise it (top-level: pool-picklable).

    ``obs`` is a caller's shared :class:`~repro.obs.ObsSession`: the run
    goes through :func:`recorded_run` on it.  Without one, a run that
    collects metrics or samples a timeseries gets a session of its own,
    closed on every exit path; its metrics snapshot rides along in the
    record under ``"metrics"``.
    """
    from repro.exp.scenarios import get_scenario

    fn = get_scenario(item.scenario)
    session = obs
    if obs is None and (item.collect_metrics or item.timeseries_path):
        from repro.obs import ObsSession

        session = ObsSession(
            collect_metrics=item.collect_metrics,
            timeseries_path=item.timeseries_path,
            timeseries_interval_s=item.timeseries_interval_s or 1.0,
        )
        session.begin_run(item.label)
    try:
        result = recorded_run(
            obs, item.label, lambda: fn(**item.params, seed=item.seed, obs=session)
        )
        record = result.summary_record()
        if item.collect_metrics:
            record["metrics"] = session.metrics_snapshot()
        return record
    finally:
        if session is not obs:
            session.close()


def error_envelope(exc: BaseException, attempts: int = 1) -> Dict[str, Any]:
    """Structured, JSON-able description of a run failure.

    Traceback frames are shortened to ``filename:lineno in function``
    (basenames only) so the envelope is stable across checkouts and
    byte-identical between serial and parallel execution.
    """
    frames = traceback.extract_tb(exc.__traceback__)
    summary = [
        f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno} in {frame.name}"
        for frame in frames[-_TRACEBACK_FRAMES:]
    ]
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": summary,
        "attempts": attempts,
    }


def _call_with_timeout(fn: Callable[[], Any], timeout_s: Optional[float]) -> Any:
    """Run ``fn`` under a SIGALRM wall-clock budget when possible.

    Timeouts need SIGALRM and the main thread; anywhere else (Windows,
    worker threads) the call runs unbounded rather than failing — the
    budget is best-effort protection, not a correctness contract.
    """
    if not timeout_s or timeout_s <= 0:
        return fn()
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return fn()

    def _on_alarm(signum, frame):  # pragma: no cover - trivial
        raise RunTimeoutError(f"run exceeded {timeout_s:g}s wall-clock")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def guarded_call(
    fn: Callable[[], Dict[str, Any]],
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.0,
) -> Dict[str, Any]:
    """Run ``fn`` to an outcome dict: ``{"record": ...}`` or ``{"error": ...}``.

    ``retries`` extra attempts are made after a failure, sleeping
    ``backoff_s * 2**(attempt-1)`` between them (exponential backoff).
    KeyboardInterrupt/SystemExit always propagate — a user abort must
    not be recorded as a run failure.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return {"record": _call_with_timeout(fn, timeout_s)}
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            if attempts <= retries:
                if backoff_s > 0:
                    time.sleep(backoff_s * (2 ** (attempts - 1)))
                continue
            return {"error": error_envelope(exc, attempts=attempts)}


def execute_run_guarded(
    item: WorkItem,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.0,
    obs=None,
) -> Dict[str, Any]:
    """:func:`execute_run` behind :func:`guarded_call` (pool-picklable).

    Besides the record/error, the outcome carries telemetry the runner
    folds into progress heartbeats: which process executed the run and
    the wall time it took (including retries) — measured here because
    only that process knows both.
    """
    started = time.perf_counter()
    outcome = guarded_call(
        lambda: execute_run(item, obs),
        timeout_s=timeout_s,
        retries=retries,
        backoff_s=backoff_s,
    )
    outcome["wall_time_s"] = time.perf_counter() - started
    import multiprocessing

    outcome["worker"] = multiprocessing.current_process().name
    return outcome


def _outcomes(items: List[WorkItem], guarded, jobs: int, obs) -> Iterator[Dict[str, Any]]:
    """``guarded(item)`` for each item, in order: in-process (where a
    shared ``obs`` can go along) or across a pool of ``jobs`` workers."""
    if jobs == 1:
        for item in items:
            yield guarded(item, obs=obs)
        return
    import multiprocessing

    workers = min(jobs, len(items))
    with multiprocessing.Pool(processes=workers) as pool:
        # imap preserves submission order, so results land at their
        # run's index no matter which worker finished first — this is
        # what makes jobs=N output identical to jobs=1.  A chunk is a
        # batch of runs, each still behind its own guard in the worker.
        yield from pool.imap(guarded, items, _chunksize(len(items), workers))


def _envelope(spec: RunSpec, record: Dict[str, Any], version: str) -> Dict[str, Any]:
    """The JSONL line persisted per completed run."""
    return {
        "scenario": spec.scenario,
        "params": canonical_params(spec.kwargs),
        "seed": spec.seed,
        "version": version,
        "record": record,
    }


def _failure_envelope(
    spec: RunSpec, error: Dict[str, Any], version: str
) -> Dict[str, Any]:
    """The JSONL line persisted per *failed* run (quarantine entry).

    Same shape as a success envelope with ``record`` null and the error
    attached, so store consumers can distinguish the two by the
    ``error`` key alone.
    """
    envelope = _envelope(spec, None, version)  # type: ignore[arg-type]
    envelope["error"] = error
    return envelope


def run_campaign(
    spec: CampaignSpec,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    obs=None,
    on_run: Optional[Callable[[RunSpec, bool], None]] = None,
    refresh: bool = False,
    run_timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.0,
) -> CampaignReport:
    """Execute ``spec``, reusing cached runs; return ordered results.

    Parameters
    ----------
    store:
        Result cache; ``None`` disables caching (every run executes).
    jobs:
        Worker-pool width.  ``1`` runs in-process (and is the only mode
        that can thread a tracing ``obs`` session through).
    obs:
        Optional :class:`repro.obs.ObsSession` passed to every scenario
        call — serial mode only, and mutually exclusive with
        ``spec.collect_metrics`` (per-run registries would fight over
        the simulator's trace bus).
    on_run:
        Optional ``fn(run_spec, from_cache)`` progress callback, invoked
        in completion order.
    refresh:
        Ignore cached results: execute every run and overwrite its store
        entry (the JSONL stays append-only; the newest line wins).
    run_timeout_s:
        Per-run wall-clock budget in seconds (None = unbounded).  A run
        over budget fails with a :class:`RunTimeoutError` envelope.
    retries:
        Extra attempts per failing run before its failure is recorded.
    retry_backoff_s:
        Base of the exponential backoff slept between attempts.

    A failing run never aborts the campaign: its error envelope lands in
    the matching :class:`RunResult` (and, when a store is present, in a
    quarantine line that is retried — not served — by the next
    invocation).
    """
    Domain(int, ge=1).check("run_campaign.jobs", jobs)
    Domain(int, ge=0).check("run_campaign.retries", retries)
    Domain(float, ge=0).check("run_campaign.retry_backoff_s", retry_backoff_s)
    Domain(float, gt=0, optional=True).check(
        "run_campaign.run_timeout_s", run_timeout_s
    )
    if obs is not None and jobs != 1:
        raise ValueError("a shared obs session requires jobs=1")
    if obs is not None and (spec.collect_metrics or spec.timeseries_interval_s is not None):
        raise ValueError(
            "collect_metrics and campaign timeseries use a per-run obs "
            "session; drop the shared one or the flag"
        )

    version = package_version()
    runs = spec.runs()
    ts_dir: Optional[str] = None
    if any(run.timeseries_interval_s for run in runs):
        if store is None:
            raise ValueError(
                "in-run timeseries requires a result store to write "
                "timeseries/<run key>.jsonl into"
            )
        ts_dir = os.path.join(store.directory, "timeseries")
        os.makedirs(ts_dir, exist_ok=True)

    records: List[Optional[Dict[str, Any]]] = [None] * len(runs)
    errors: List[Optional[Dict[str, Any]]] = [None] * len(runs)
    hits: List[bool] = [False] * len(runs)
    pending: List[RunSpec] = []
    quarantined = 0
    progress = CampaignProgress(
        total=len(runs),
        log=(
            ProgressLog(
                os.path.join(store.directory, "progress.jsonl"), spec.name
            )
            if store is not None
            else None
        ),
        line=StderrProgress(len(runs)),
    )
    progress.campaign_started(jobs=jobs, version=version)
    for run in runs:
        envelope = (
            store.get(run.key) if store is not None and not refresh else None
        )
        if envelope is not None and envelope.get("error") is None:
            records[run.index] = envelope["record"]
            hits[run.index] = True
            progress.run_finished(
                run,
                "cached",
                sim_events=envelope["record"].get("sim_events", 0),
            )
            if on_run is not None:
                on_run(run, True)
        else:
            if envelope is not None:
                # Quarantined failure from a previous invocation: never
                # a cache hit — the run is retried now.
                quarantined += 1
            pending.append(run)

    def absorb(run: RunSpec, outcome: Dict[str, Any]) -> None:
        error = outcome.get("error")
        worker = outcome["worker"]
        wall_time_s = outcome["wall_time_s"]
        if error is None:
            record = outcome["record"]
            # Host-measured timing never enters stored records — it
            # would break caching, resume diffs and jobs=1 == jobs=N
            # byte-identity.  It lives in the progress heartbeat.
            timing = {
                f: record.pop(f) for f in VOLATILE_TIMING_FIELDS if f in record
            }
            records[run.index] = record
            if store is not None:
                store.put(run.key, _envelope(run, record, version))
            progress.run_finished(
                run,
                "ok",
                wall_time_s=timing.get("wall_time_s", wall_time_s),
                sim_events=record.get("sim_events", 0),
                events_per_second=timing.get("events_per_second", 0.0),
                worker=worker,
            )
        else:
            errors[run.index] = error
            if store is not None:
                store.put(run.key, _failure_envelope(run, error, version))
            progress.run_finished(
                run,
                "failed",
                wall_time_s=wall_time_s,
                worker=worker,
                error_type=error.get("type"),
            )
        if on_run is not None:
            on_run(run, False)

    guarded = partial(
        execute_run_guarded,
        timeout_s=run_timeout_s,
        retries=retries,
        backoff_s=retry_backoff_s,
    )
    try:
        if pending:
            items = [
                WorkItem(
                    run.scenario, run.kwargs, run.seed, run.collect_metrics,
                    run.timeseries_interval_s,
                    os.path.join(ts_dir, f"{run.key}.jsonl") if ts_dir else None,
                    run.label,
                )
                for run in pending
            ]
            # closing(): a raising absorb must still shut the pool down.
            with closing(_outcomes(items, guarded, jobs, obs)) as outcomes:
                for run, outcome in zip(pending, outcomes):
                    absorb(run, outcome)
    finally:
        progress.campaign_finished()

    results = [
        RunResult(
            spec=run,
            record=records[run.index] or {},
            from_cache=hits[run.index],
            error=errors[run.index],
        )
        for run in runs
    ]
    return CampaignReport(
        spec=spec,
        results=results,
        cached=sum(hits),
        executed=len(pending),
        failed=sum(1 for e in errors if e is not None),
        quarantined=quarantined,
        version=version,
        jobs=jobs,
    )
