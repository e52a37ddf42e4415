"""Measurement and reporting: energy, QoS, timelines, charts.

- :mod:`repro.metrics.energy` — per-device and per-client energy/power
  reports (the numbers behind the paper's Figure 2);
- :mod:`repro.metrics.qos` — streaming QoS: a playout buffer with
  underrun detection, delivery deadline tracking;
- :mod:`repro.metrics.timeline` — renders radio-state traces as the
  schedule diagram of the paper's Figure 1;
- :mod:`repro.metrics.report` — fixed-width tables and ASCII bar charts
  for benchmark output.
"""

from repro.metrics.energy import ClientEnergyReport, EnergyBreakdown
from repro.metrics.qos import DeadlineTracker, PlayoutBuffer, QosSummary
from repro.metrics.timeline import render_schedule_timeline
from repro.metrics.report import ascii_bar_chart, format_table

__all__ = [
    "ClientEnergyReport",
    "DeadlineTracker",
    "EnergyBreakdown",
    "PlayoutBuffer",
    "QosSummary",
    "ascii_bar_chart",
    "format_table",
    "render_schedule_timeline",
]
