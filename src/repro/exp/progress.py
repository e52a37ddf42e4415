"""Campaign progress telemetry: heartbeat records and a live tty line.

Long campaigns were a black box between the start banner and the final
status line.  :class:`ProgressLog` appends one JSON heartbeat per event
to ``progress.jsonl`` inside the result store — campaign start, one
record per finished run (hash, worker, wall time, events/s, outcome),
campaign end — so an interrupted or remote campaign is inspectable
after the fact and the ``repro report`` dashboard can chart throughput
per worker.  :class:`StderrProgress` paints a single live progress line,
only when stderr is a tty — redirected/CI output stays byte-stable.

Heartbeats are *telemetry*, not results: they carry the host-dependent
timing that :data:`~repro.core.outcome.VOLATILE_TIMING_FIELDS` keeps
out of stored run records, and they are append-only across resumed
invocations (each invocation adds its own start/run/end sequence).

Record shapes (one JSON object per line)::

    {"t": ..., "kind": "campaign-start", "campaign": ..., "total": ...,
     "jobs": ..., "version": ...}
    {"t": ..., "kind": "run", "campaign": ..., "index": ..., "total": ...,
     "key": ..., "scenario": ..., "label": ..., "outcome": "ok",
     "wall_time_s": ..., "sim_events": ..., "events_per_second": ...,
     "worker": ...}                      # + "error_type" when "failed"
    {"t": ..., "kind": "shard", "campaign": ..., "label": ..., "shard": ...,
     "shards": ..., "cells": ..., "clients": ..., "barrier": ...,
     "barriers": ..., "sim_time_s": ..., "sim_events": ...,
     "wall_time_s": ..., "events_per_second": ...}

``events_per_second`` is ``null`` whenever ``wall_time_s`` is 0 (cache
hits and sub-clock-resolution runs have no defined throughput).
    {"t": ..., "kind": "campaign-end", "campaign": ..., "cached": ...,
     "executed": ..., "failed": ..., "wall_time_s": ...}

``outcome`` is ``"ok"``, ``"failed"`` or ``"cached"`` (cache hits get a
heartbeat too — zero wall time, so resume throughput is attributable).
"""

from __future__ import annotations

import json
import math
import sys
import time
from typing import Any, Dict, List, Optional

__all__ = ["ProgressLog", "StderrProgress", "CampaignProgress", "read_progress"]


class ProgressLog:
    """Append-only JSONL heartbeat stream for one campaign invocation."""

    def __init__(self, path: str, campaign: str) -> None:
        self.path = str(path)
        self.campaign = campaign
        self._stream = open(self.path, "a", encoding="utf-8")
        self._encode = json.JSONEncoder(separators=(",", ":")).encode

    def emit(self, kind: str, **fields: Any) -> None:
        record = {"t": time.time(), "kind": kind, "campaign": self.campaign, **fields}
        self._stream.write(self._encode(record) + "\n")
        self._stream.flush()

    def close(self) -> None:
        self._stream.close()


class StderrProgress:
    """A single in-place progress line, active only on an interactive tty.

    Non-tty stderr (CI, pipes) gets nothing: scripted invocations that
    grep campaign status lines must not see partial repaints.
    """

    def __init__(self, total: int, stream=None) -> None:
        self.total = total
        self._stream = stream if stream is not None else sys.stderr
        self._active = bool(getattr(self._stream, "isatty", lambda: False)())
        self._painted = False

    def update(self, done: int, ok: int, failed: int, cached: int) -> None:
        if not self._active:
            return
        line = (
            f"\r  {done}/{self.total} runs"
            f" · {ok} ok · {failed} failed · {cached} cached"
        )
        self._stream.write(line.ljust(60))
        self._stream.flush()
        self._painted = True

    def finish(self) -> None:
        if self._painted:
            self._stream.write("\n")
            self._stream.flush()
            self._painted = False


class CampaignProgress:
    """Facade the runner drives: fans one event out to log + tty line.

    Either side may be absent (no store → no log; non-tty → no line);
    the runner stays a single call site either way.
    """

    def __init__(
        self,
        total: int,
        log: Optional[ProgressLog] = None,
        line: Optional[StderrProgress] = None,
    ) -> None:
        self.total = total
        self.log = log
        self.line = line
        self.ok = 0
        self.failed = 0
        self.cached = 0
        self._started = time.perf_counter()

    @property
    def done(self) -> int:
        return self.ok + self.failed + self.cached

    def campaign_started(self, jobs: int, version: str) -> None:
        if self.log is not None:
            self.log.emit(
                "campaign-start", total=self.total, jobs=jobs, version=version
            )

    def run_finished(
        self,
        run,
        outcome: str,
        wall_time_s: float = 0.0,
        sim_events: int = 0,
        events_per_second: Optional[float] = 0.0,
        worker: str = "main",
        error_type: Optional[str] = None,
    ) -> None:
        """Record one settled run; ``run`` is a :class:`~repro.exp.spec.RunSpec`.

        ``events_per_second`` is undefined when ``wall_time_s`` is zero
        (cache hits, sub-clock-resolution runs): the heartbeat then
        carries ``null`` rather than a fake 0.0 — or an ``inf`` from a
        caller dividing by the zero — so throughput charts can drop the
        sample instead of plotting it.
        """
        if outcome == "ok":
            self.ok += 1
        elif outcome == "failed":
            self.failed += 1
        else:
            self.cached += 1
        if wall_time_s <= 0 or events_per_second is None or not (
            -math.inf < events_per_second < math.inf
        ):
            events_per_second = None
        if self.log is not None:
            fields: Dict[str, Any] = {
                "index": run.index,
                "total": self.total,
                "key": run.key,
                "scenario": run.scenario,
                "label": run.label,
                "outcome": outcome,
                "wall_time_s": wall_time_s,
                "sim_events": sim_events,
                "events_per_second": events_per_second,
                "worker": worker,
            }
            if error_type is not None:
                fields["error_type"] = error_type
            self.log.emit("run", **fields)
        if self.line is not None:
            self.line.update(self.done, self.ok, self.failed, self.cached)

    def campaign_finished(self) -> None:
        if self.line is not None:
            self.line.finish()
        if self.log is not None:
            self.log.emit(
                "campaign-end",
                cached=self.cached,
                executed=self.ok + self.failed,
                failed=self.failed,
                wall_time_s=time.perf_counter() - self._started,
            )
            self.log.close()


def read_progress(path: str) -> List[Dict[str, Any]]:
    """Load a heartbeat file; skips blank/torn lines like the store does."""
    records: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records
