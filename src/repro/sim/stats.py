"""Statistics collectors used throughout the simulation.

- :class:`RunningStat` — streaming mean/variance (Welford's algorithm).
- :class:`TimeWeightedStat` — mean of a piecewise-constant signal weighted
  by how long each value was held.  This is how average *power* is computed
  from a power-state trace, so it is the numerically sensitive heart of the
  reproduction.
- :class:`TimeSeries` — append-only (time, value) trace for timelines.

Distributions are summarised by
:class:`repro.obs.metrics.StreamingHistogram` (P² quantiles, no fixed
bins).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, Optional


class RunningStat:
    """Streaming count/mean/variance/min/max via Welford's algorithm."""

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Fold ``value`` into the statistic."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold every value of ``values`` into the statistic."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); 0 for fewer than two samples."""
        return self._m2 / (self._count - 1) if self._count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        """Smallest sample; NaN while empty (0.0 would read as a measurement)."""
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        """Largest sample; NaN while empty (0.0 would read as a measurement)."""
        return self._max if self._count else math.nan

    def __repr__(self) -> str:
        return (
            f"<RunningStat n={self._count} mean={self.mean:.6g} "
            f"sd={self.stdev:.6g}>"
        )


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant signal.

    Record value changes with :meth:`record`; query the average over the
    observed window with :meth:`mean`.  The signal holds its last value
    until the next record (or until ``close``/query time).

    Parameters
    ----------
    initial_time:
        Time at which observation starts.
    initial_value:
        Signal value at ``initial_time``.
    """

    __slots__ = ("_start", "_last_time", "_value", "_weighted_sum", "_durations")

    def __init__(self, initial_time: float = 0.0, initial_value: float = 0.0) -> None:
        self._start = float(initial_time)
        self._last_time = float(initial_time)
        self._value = float(initial_value)
        self._weighted_sum = 0.0
        #: Accumulated time per distinct value, for time-in-state breakdowns.
        self._durations: dict[float, float] = {}

    @property
    def value(self) -> float:
        """Current value of the signal."""
        return self._value

    def record(self, time: float, value: float) -> None:
        """The signal changes to ``value`` at ``time``."""
        self._accumulate(time)
        self._value = float(value)

    def _accumulate(self, time: float) -> None:
        if time < self._last_time:
            raise ValueError(
                f"time went backwards: {time!r} < {self._last_time!r}"
            )
        held = time - self._last_time
        if held > 0:
            self._weighted_sum += self._value * held
            self._durations[self._value] = self._durations.get(self._value, 0.0) + held
        self._last_time = time

    def add_impulse(self, area: float) -> None:
        """Add a Dirac impulse of the given ``area`` to the integral.

        Used for instantaneous energy costs (e.g. a zero-latency radio
        state change) that must show up in the integral but occupy no time.
        """
        self._weighted_sum += area

    def mean(self, now: Optional[float] = None) -> float:
        """Time-weighted mean from start through ``now`` (default: last record)."""
        end = self._last_time if now is None else float(now)
        if end < self._last_time:
            raise ValueError(f"now={end!r} precedes last record {self._last_time!r}")
        elapsed = end - self._start
        if elapsed <= 0:
            return self._value
        total = self._weighted_sum + self._value * (end - self._last_time)
        return total / elapsed

    def integral(self, now: Optional[float] = None) -> float:
        """Integral of the signal (e.g. energy in joules for a power signal)."""
        end = self._last_time if now is None else float(now)
        if end < self._last_time:
            raise ValueError(f"now={end!r} precedes last record {self._last_time!r}")
        return self._weighted_sum + self._value * (end - self._last_time)

    def duration_by_value(self, now: Optional[float] = None) -> dict[float, float]:
        """Total time spent at each distinct value (including the open segment)."""
        result = dict(self._durations)
        end = self._last_time if now is None else float(now)
        open_segment = end - self._last_time
        if open_segment > 0:
            result[self._value] = result.get(self._value, 0.0) + open_segment
        return result

    def elapsed(self, now: Optional[float] = None) -> float:
        """Length of the observation window."""
        end = self._last_time if now is None else float(now)
        return end - self._start


class TimeSeries:
    """Append-only (time, value) trace with monotone time."""

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[Any] = []

    def append(self, time: float, value: Any) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time went backwards in series {self.name!r}: "
                f"{time!r} < {self._times[-1]!r}"
            )
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[tuple[float, Any]]:
        return iter(zip(self._times, self._values))

    @property
    def times(self) -> list[float]:
        return list(self._times)

    @property
    def values(self) -> list[Any]:
        return list(self._values)

    def last(self) -> tuple[float, Any]:
        """Most recent (time, value); raises if empty."""
        if not self._times:
            raise IndexError(f"series {self.name!r} is empty")
        return self._times[-1], self._values[-1]

    def value_at(self, time: float) -> Any:
        """Value of the piecewise-constant signal at ``time``.

        Returns the value of the latest sample at or before ``time``;
        raises if ``time`` precedes the first sample.
        """
        if not self._times or time < self._times[0]:
            raise ValueError(f"no sample at or before t={time!r}")
        # Binary search for rightmost sample <= time.
        lo, hi = 0, len(self._times) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._times[mid] <= time:
                lo = mid
            else:
                hi = mid - 1
        return self._values[lo]
