"""Shared helpers for the benchmark suite.

Every benchmark regenerates one figure/table of the paper (or a survey
claim / design ablation indexed in DESIGN.md).  The convention:

- ``run_*`` builds the workload, runs the simulation and returns rows;
- the ``test_bench_*`` wrapper runs it once through ``run_once``, prints
  the table through ``emit`` so it shows up without ``-s``, and asserts
  the *shape* the paper reports (who wins, roughly by how much).

These are experiment regenerations, not micro-benchmarks: the end-to-end
harness under ``benchmarks/e2e`` is where run time is measured.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def emit(capsys):
    """Print past pytest's capture so tables land in the console/tee."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _emit


def run_once(func, *args, **kwargs):
    """Run one full experiment (no warmup, no repetition, no timing)."""
    return func(*args, **kwargs)
