"""Measurement and reporting: energy, QoS, timelines, charts.

- :mod:`repro.metrics.energy` — per-device and per-client energy/power
  reports (the numbers behind the paper's Figure 2);
- :mod:`repro.metrics.qos` — streaming QoS: a playout buffer with
  underrun detection;
- :mod:`repro.metrics.timeline` — renders radio-state traces as the
  schedule diagram of the paper's Figure 1;
- :mod:`repro.metrics.report` — fixed-width tables and ASCII bar charts
  for benchmark output.
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "energy": ("ClientEnergyReport", "EnergyBreakdown"),
        "qos": ("PlayoutBuffer", "QosSummary"),
        "timeline": ("render_schedule_timeline",),
        "report": ("ascii_bar_chart", "format_table"),
    },
)
