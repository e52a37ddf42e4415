"""In-run time-series telemetry: sampled counters/gauges over simulated time.

End-of-run metric snapshots collapse the very dynamics the paper plots —
energy drain, sleep-state occupancy and queue backlog are *trajectories*.
A :class:`TimeseriesRecorder` samples a set of registered probes (cheap
``fn() -> float`` callables) on a fixed simulated-time cadence, driven by
a repeating kernel event, and streams the samples to a
:class:`TimeseriesWriter` as compact columnar JSONL::

    {"run": "hotspot", "interval_s": 1.0, "columns": ["time_s", ...]}
    [0.0, 37, 37.0, 12, 0.0, 0.0]
    [1.0, 412, 375.0, 14, 0.081, 0.24]

One header object per run, then one JSON array per sample whose positions
match ``columns`` — self-describing, append-friendly, and an order of
magnitude smaller than per-sample objects.  Several runs can share one
file (each starts a fresh header), which is how a serial campaign streams
every run into a single artifact.

Determinism contract: samples carry simulation time and deterministic
state only — never wall-clock — so a seeded run records a byte-identical
sample stream regardless of worker count or host (the ``jobs=1 == jobs=N``
campaign property extends to timeseries files).

The recorder's sampling events ride the normal event queue (they increase
``Simulator.events_scheduled`` but never perturb scenario behaviour: they
only read state).  Because the queue is never empty while a recorder is
installed, sampling requires bounded runs (``sim.run(until=...)``), which
is how every scenario executes.
"""

from __future__ import annotations

import json
from typing import IO, Callable, List, Optional, Tuple

from repro._domain import Domain

#: A sampling cadence: simulated seconds between samples.
INTERVAL = Domain(float, gt=0)

#: Built-in kernel columns every recorder samples before its probes.
KERNEL_COLUMNS = ("time_s", "events", "events_per_s", "queue_depth")


class TimeseriesWriter:
    """Streams columnar JSONL sample blocks to one open text stream."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream
        self._owns_stream = False
        self.rows_written = 0

    @classmethod
    def open(cls, path: str) -> "TimeseriesWriter":
        writer = cls(open(path, "w", encoding="utf-8"))
        writer._owns_stream = True
        return writer

    def write_header(
        self, columns: List[str], interval_s: float, run: Optional[str]
    ) -> None:
        header = {"run": run, "interval_s": interval_s, "columns": columns}
        self._stream.write(json.dumps(header, separators=(",", ":")))
        self._stream.write("\n")

    def write_row(self, values: List[float]) -> None:
        self._stream.write(json.dumps(values, separators=(",", ":")))
        self._stream.write("\n")
        self.rows_written += 1

    def close(self) -> None:
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()


class TimeseriesRecorder:
    """Sample registered probes on a simulated-time cadence.

    Parameters
    ----------
    writer:
        Destination for the header + sample rows.
    interval_s:
        Simulated seconds between samples (first sample at t = now when
        :meth:`install` is called, normally 0).
    run:
        Optional run label recorded in the header.

    Probes are registered *after* construction (typically by
    :class:`~repro.build.builder.WorldBuilder` once the world's actors
    exist) and before the simulation starts; the column set freezes when
    the first sample writes the header.
    """

    def __init__(
        self,
        writer: TimeseriesWriter,
        interval_s: float = 1.0,
        run: Optional[str] = None,
    ) -> None:
        INTERVAL.check("TimeseriesRecorder.interval_s", interval_s)
        self.writer = writer
        self.interval_s = float(interval_s)
        self.run = run
        self._probes: List[Tuple[str, Callable[[], float]]] = []
        self._sim = None
        self._installed = False
        self._header_written = False
        self._last_events = 0
        self.samples = 0

    # -- probe registration --------------------------------------------------

    def probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register one sampled column; ``fn`` must be cheap and pure."""
        if self._header_written:
            raise RuntimeError(
                "columns are frozen once the first sample is written"
            )
        if name in KERNEL_COLUMNS or any(n == name for n, _ in self._probes):
            raise ValueError(f"duplicate timeseries column {name!r}")
        self._probes.append((name, fn))

    @property
    def columns(self) -> List[str]:
        return [*KERNEL_COLUMNS, *(name for name, _ in self._probes)]

    # -- sampling ------------------------------------------------------------

    def install(self, sim) -> None:
        """Begin sampling on ``sim`` (first sample fires at the current time)."""
        if self._installed:
            raise RuntimeError("recorder is already installed on a simulator")
        self._installed = True
        self._sim = sim
        self._schedule(0.0)

    def _schedule(self, delay: float) -> None:
        self._sim.timeout(delay).callbacks.append(self._sample)

    def _sample(self, _event) -> None:
        sim = self._sim
        if not self._header_written:
            self._header_written = True
            self.writer.write_header(self.columns, self.interval_s, self.run)
        events = sim.events_scheduled
        row: List[float] = [
            sim.now,
            events,
            (events - self._last_events) / self.interval_s,
            sim.queue_depth,
        ]
        self._last_events = events
        for _name, fn in self._probes:
            row.append(float(fn()))
        self.writer.write_row(row)
        self.samples += 1
        self._schedule(self.interval_s)

    def __repr__(self) -> str:
        return (
            f"<TimeseriesRecorder interval={self.interval_s:g}s "
            f"columns={len(self.columns)} samples={self.samples}>"
        )


def read_timeseries(path: str) -> List[dict]:
    """Load a columnar JSONL file back into per-run blocks.

    Returns a list of ``{"run", "interval_s", "columns", "rows"}`` dicts —
    one per header encountered.  Rows belong to the most recent header;
    a malformed trailing line (interrupted write) is ignored, mirroring
    the result-store's crash tolerance.
    """
    blocks: List[dict] = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(payload, dict):
                payload = dict(payload)
                payload["rows"] = []
                blocks.append(payload)
            elif isinstance(payload, list) and blocks:
                blocks[-1]["rows"].append(payload)
    return blocks
