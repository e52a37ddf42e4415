"""Observability: tracing, metrics, exporters and the kernel profiler.

The debugging/measurement substrate every layer emits through:

- :mod:`repro.obs.bus` — the :class:`TraceBus` structured event stream
  (``time_s, layer, entity, kind, **fields``) with subscriber filtering,
  a bounded ring buffer and a zero-overhead disabled path;
- :mod:`repro.obs.metrics` — counters, gauges and streaming P² histograms
  in a :class:`MetricsRegistry`;
- :mod:`repro.obs.export` — JSONL traces, Chrome trace-event JSON
  (Perfetto-loadable radio tracks) and summary tables;
- :mod:`repro.obs.profiler` — per-event-kind wall-clock profile of the
  simulation kernel;
- :mod:`repro.obs.timeseries` — in-run sampling of counters/gauges on a
  simulated-time cadence, streamed as compact columnar JSONL;
- :mod:`repro.obs.session` — the CLI-facing bundle of all of the above.
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "bus": ("TraceBus", "TraceEvent"),
        "export": (
            "JsonlTraceWriter",
            "MetricsCollector",
            "chrome_trace_events",
            "radio_dwell_table",
            "top_kinds_table",
            "write_chrome_trace",
        ),
        "metrics": (
            "Counter",
            "Gauge",
            "MetricsRegistry",
            "P2Quantile",
            "StreamingHistogram",
        ),
        "profiler": ("KernelProfiler",),
        "session": ("ObsSession",),
        "timeseries": (
            "TimeseriesRecorder",
            "TimeseriesWriter",
            "read_timeseries",
        ),
    },
)
