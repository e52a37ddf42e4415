"""Trace exporters: JSONL stream, Chrome trace-event JSON, summary tables.

- :class:`JsonlTraceWriter` — a streaming bus subscriber writing one JSON
  object per line (``time_s``, ``layer``, ``entity``, ``kind`` + event
  fields), independent of the bus's ring-buffer capacity.
- :func:`chrome_trace_events` / :func:`write_chrome_trace` — the Chrome
  trace-event format (load in Perfetto or ``chrome://tracing``): each
  scenario run is a process, each client radio a track, and every radio
  state dwell a duration slice.
- :class:`MetricsCollector` — a subscriber folding bus traffic into a
  :class:`~repro.obs.metrics.MetricsRegistry` (per-kind counters plus
  dwell/slack histograms).
- :func:`top_kinds_table` — the ``repro trace`` summary, reusing
  ``metrics.report.format_table``.
"""

from __future__ import annotations

import json
from typing import IO, Dict, List, Optional, Sequence, Tuple

from repro.metrics.report import format_table
from repro.obs.bus import TraceBus, TraceEvent
from repro.obs.metrics import MetricsRegistry
from repro.phy.radio import Radio


class JsonlTraceWriter:
    """Stream every bus event to a JSONL file as it is emitted.

    Parameters
    ----------
    stream:
        An open text stream (the caller owns closing it unless the writer
        was built with :meth:`open`).
    run:
        Optional run label added to every line as a ``run`` key, so traces
        from several scenario runs in one file stay distinguishable.
    """

    def __init__(self, stream: IO[str], run: Optional[str] = None) -> None:
        self._stream = stream
        self._owns_stream = False
        self.run = run
        self.lines_written = 0

    @classmethod
    def open(cls, path: str, run: Optional[str] = None) -> "JsonlTraceWriter":
        writer = cls(open(path, "w", encoding="utf-8"), run=run)
        writer._owns_stream = True
        return writer

    def __call__(self, event: TraceEvent) -> None:
        record = event.as_dict()
        if self.run is not None:
            record["run"] = self.run
        self._stream.write(json.dumps(record, separators=(",", ":")))
        self._stream.write("\n")
        self.lines_written += 1

    def attach(self, bus: TraceBus, **filters) -> "JsonlTraceWriter":
        bus.subscribe(self, **filters)
        return self

    def close(self) -> None:
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()


#: One scenario run for chrome-trace rendering:
#: ``(label, duration_s, radios)`` or, with component tracks,
#: ``(label, duration_s, radios, component_events)`` where
#: ``component_events`` is a sequence of bus :class:`TraceEvent`\\ s.
ChromeRun = Tuple[str, float, Dict[str, Radio]]

#: Layers that get their own instant-event track per run (declaration
#: order fixes the track order under the radio tracks).
COMPONENT_LAYERS = ("mac", "link", "net", "transport", "core")


def chrome_trace_events(runs: Sequence[ChromeRun]) -> List[dict]:
    """Build Chrome trace-event records: one track per client radio.

    Each run becomes a process (``pid``), each radio a thread (``tid``)
    whose slices are the radio's state dwells from its ``state_series``
    (transition spans appear as their ``->target`` markers).  Timestamps
    are microseconds, per the trace-event spec.

    A run tuple may carry a fourth element — bus events captured during
    the run — which adds one *component* track per instrumented layer
    (``mac``, ``link``, ``net``, ``transport``, ``core``) holding the
    layer's events as instants, so protocol activity lines up under the
    radio dwells on a shared timeline.  ``thread_sort_index`` metadata
    keeps radios on top and components below in declaration order.
    """
    records: List[dict] = []
    for pid, run in enumerate(runs, start=1):
        label, duration_s, radios = run[0], run[1], run[2]
        component_events = run[3] if len(run) > 3 else ()
        records.append(
            {
                "ph": "M",
                "pid": pid,
                "name": "process_name",
                "args": {"name": label},
            }
        )
        tid = 0
        for tid, (radio_name, radio) in enumerate(radios.items(), start=1):
            records.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": radio_name},
                }
            )
            records.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_sort_index",
                    "args": {"sort_index": tid},
                }
            )
            points = list(radio.state_series)
            for index, (start, state) in enumerate(points):
                end = (
                    points[index + 1][0]
                    if index + 1 < len(points)
                    else max(duration_s, start)
                )
                if end <= start:
                    continue
                records.append(
                    {
                        "ph": "X",
                        "pid": pid,
                        "tid": tid,
                        "cat": "radio",
                        "name": str(state),
                        "ts": start * 1e6,
                        "dur": (end - start) * 1e6,
                    }
                )
        by_layer: Dict[str, List[TraceEvent]] = {}
        for event in component_events:
            if event.layer in COMPONENT_LAYERS:
                by_layer.setdefault(event.layer, []).append(event)
        for offset, layer in enumerate(COMPONENT_LAYERS):
            events = by_layer.get(layer)
            if not events:
                continue
            tid += 1
            records.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": layer},
                }
            )
            records.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_sort_index",
                    # Radios keep 1..len(radios); components sort after
                    # them in COMPONENT_LAYERS order even when some
                    # layers are silent.
                    "args": {"sort_index": len(radios) + 1 + offset},
                }
            )
            for event in events:
                records.append(
                    {
                        "ph": "i",
                        "s": "t",
                        "pid": pid,
                        "tid": tid,
                        "cat": layer,
                        "name": event.kind,
                        "ts": event.time_s * 1e6,
                        "args": {"entity": event.entity, **event.fields},
                    }
                )
    return records


def write_chrome_trace(path: str, runs: Sequence[ChromeRun]) -> int:
    """Write a Perfetto-loadable trace file; returns the record count."""
    records = chrome_trace_events(runs)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(
            {"traceEvents": records, "displayTimeUnit": "ms"},
            stream,
            separators=(",", ":"),
        )
    return len(records)


class MetricsCollector:
    """Fold bus events into a registry: counters per kind, key histograms."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry or MetricsRegistry()

    def __call__(self, event: TraceEvent) -> None:
        registry = self.registry
        registry.counter(f"trace.{event.layer}.{event.kind}").inc()
        if event.layer == "phy" and event.kind == "state":
            dwell = event.fields.get("dwell_s")
            if dwell is not None and dwell > 0:
                registry.histogram("phy.state.dwell_s").add(dwell)
        elif event.layer == "core" and event.kind == "grant":
            slack = event.fields.get("slack_s")
            if slack is not None and slack != float("inf"):
                registry.histogram("core.grant.slack_s").add(slack)
            nbytes = event.fields.get("nbytes")
            if nbytes is not None:
                registry.histogram("core.grant.bytes").add(nbytes)
        elif event.layer == "net":
            if event.kind == "handoff-complete":
                latency = event.fields.get("latency_s")
                if latency is not None:
                    registry.histogram("net.handoff.latency_s").add(latency)
            elif event.kind == "cell-load":
                load = event.fields.get("load")
                if load is not None:
                    registry.gauge(f"net.cell.{event.entity}.load").set(load)
                clients = event.fields.get("clients")
                if clients is not None:
                    registry.gauge(f"net.cell.{event.entity}.clients").set(
                        clients
                    )
            elif event.kind == "associate":
                if event.fields.get("previous") is not None:
                    registry.counter("net.association.churn").inc()

    def attach(self, bus: TraceBus) -> "MetricsCollector":
        bus.subscribe(self)
        return self


def top_kinds_table(
    events_or_registry, top_n: int = 12, title: str = "Top event kinds"
) -> str:
    """Rank ``layer.kind`` pairs by count; accepts events or a registry."""
    counts: Dict[str, float] = {}
    if isinstance(events_or_registry, MetricsRegistry):
        for name, value in events_or_registry.as_dict().items():
            if name.startswith("trace.") and isinstance(value, (int, float)):
                counts[name[len("trace."):]] = value
    else:
        for event in events_or_registry:
            key = f"{event.layer}.{event.kind}"
            counts[key] = counts.get(key, 0) + 1
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    rows = [
        [key, int(count), f"{count / total * 100:.1f}%" if total else "0%"]
        for key, count in ranked[:top_n]
    ]
    return format_table(["layer.kind", "events", "share"], rows, title=title)


def radio_dwell_table(
    radios: Dict[str, Radio], title: str = "Radio dwell breakdown"
) -> str:
    """Per-radio time-in-state table (the μNap-style dwell evidence)."""
    rows: List[List[object]] = []
    for name, radio in radios.items():
        for state in radio.model.state_names():
            dwell = radio.time_in_state(state)
            if dwell > 0:
                rows.append([name, state, dwell, radio.model.power(state)])
    return format_table(
        ["radio", "state", "time (s)", "power (W)"], rows, title=title
    )
