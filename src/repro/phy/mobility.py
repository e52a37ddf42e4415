"""Client mobility: the seeded random-waypoint walker.

The paper's switchover trigger — "as conditions in the link change" — is
usually *motion*: a client walking away from its Bluetooth master loses
that link long before WLAN (whose access point has far more link budget).
Fleet worlds move their clients with :class:`RandomWaypoint`, and each
site's :class:`~repro.net.topology.LinkBudget` turns the distance into
the ``quality(t)`` signal the Hotspot's interface-selection policy
consumes.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.streams import RandomStreams


class RandomWaypoint:
    """The classic random-waypoint model on a seeded substream.

    The node repeatedly draws a destination uniformly inside a
    rectangular arena, walks there at a uniformly drawn speed, pauses
    for a uniformly drawn dwell, and repeats.  All draws come from one
    dedicated ``mobility/<name>`` substream of the experiment's
    :class:`~repro.sim.streams.RandomStreams`, so fault plans, traffic
    models or any other consumer of the master seed can change their
    consumption pattern without perturbing a single path.

    Legs are generated lazily but strictly in order and cached, so
    ``position(t)`` is deterministic for a given (seed, name) no matter
    how (or how often, or in what order) it is queried.

    Parameters
    ----------
    streams:
        The experiment's seeded stream factory.
    name:
        Node identity; the substream is ``mobility/<name>``.
    area:
        ``((x_min, y_min), (x_max, y_max))`` arena corners, metres.
    speed_range_m_s:
        ``(low, high)`` walking-speed draw (high > low >= 0... low > 0
        so every leg terminates).
    pause_range_s:
        ``(low, high)`` dwell at each waypoint (0 allowed).
    start_xy:
        Position at t=0; drawn uniformly inside the arena when None.
    """

    def __init__(
        self,
        streams: "RandomStreams",
        name: str,
        area: Tuple[Tuple[float, float], Tuple[float, float]] = (
            (0.0, 0.0),
            (100.0, 100.0),
        ),
        speed_range_m_s: Tuple[float, float] = (0.5, 2.0),
        pause_range_s: Tuple[float, float] = (0.0, 5.0),
        start_xy: Tuple[float, float] | None = None,
    ) -> None:
        (x_min, y_min), (x_max, y_max) = area
        if x_max <= x_min or y_max <= y_min:
            raise ValueError("arena must have positive width and height")
        if not 0.0 < speed_range_m_s[0] <= speed_range_m_s[1]:
            raise ValueError("need 0 < speed_low <= speed_high")
        if not 0.0 <= pause_range_s[0] <= pause_range_s[1]:
            raise ValueError("need 0 <= pause_low <= pause_high")
        self.area = ((x_min, y_min), (x_max, y_max))
        self.speed_range_m_s = speed_range_m_s
        self.pause_range_s = pause_range_s
        self._rng = streams.stream(f"mobility/{name}")
        if start_xy is None:
            start_xy = (
                self._rng.uniform(x_min, x_max),
                self._rng.uniform(y_min, y_max),
            )
        else:
            if not (x_min <= start_xy[0] <= x_max and y_min <= start_xy[1] <= y_max):
                raise ValueError(f"start {start_xy!r} outside the arena")
        #: Legs as (t_start, t_end, x0, y0, x1, y1); pauses are
        #: zero-displacement legs.  Append-only, times contiguous.
        self._legs: list[Tuple[float, float, float, float, float, float]] = []
        self._leg_ends: list[float] = []  # parallel t_end index for bisect
        self._cursor_xy = start_xy
        self._cursor_t = 0.0

    def _grow_to(self, time_s: float) -> None:
        (x_min, y_min), (x_max, y_max) = self.area
        while self._cursor_t <= time_s:
            x0, y0 = self._cursor_xy
            x1 = self._rng.uniform(x_min, x_max)
            y1 = self._rng.uniform(y_min, y_max)
            speed = self._rng.uniform(*self.speed_range_m_s)
            pause = self._rng.uniform(*self.pause_range_s)
            travel = math.hypot(x1 - x0, y1 - y0) / speed
            t0 = self._cursor_t
            self._legs.append((t0, t0 + travel, x0, y0, x1, y1))
            self._leg_ends.append(t0 + travel)
            if pause > 0:
                self._legs.append(
                    (t0 + travel, t0 + travel + pause, x1, y1, x1, y1)
                )
                self._leg_ends.append(t0 + travel + pause)
            self._cursor_xy = (x1, y1)
            self._cursor_t = t0 + travel + pause

    def position(self, time_s: float) -> Tuple[float, float]:
        if time_s < 0:
            raise ValueError(f"time must be >= 0, got {time_s}")
        self._grow_to(time_s)
        index = bisect.bisect_left(self._leg_ends, time_s)
        index = min(index, len(self._legs) - 1)
        t0, t1, x0, y0, x1, y1 = self._legs[index]
        if t1 <= t0:
            return (x1, y1)
        alpha = min(max((time_s - t0) / (t1 - t0), 0.0), 1.0)
        return (x0 + alpha * (x1 - x0), y0 + alpha * (y1 - y0))

    def distance_to(self, time_s: float, point_xy: Tuple[float, float]) -> float:
        x, y = self.position(time_s)
        return math.hypot(x - point_xy[0], y - point_xy[1])
