"""Streaming QoS metrics: the playout buffer.

The paper's claim is "QoS is maintained while saving 97 % in WNIC power":
for the MP3 workload, QoS means the player's buffer never underruns.
:class:`PlayoutBuffer` models the client-side decoder draining at the
encoded bitrate from a buffer the network fills in bursts, and records
every underrun with its duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class QosSummary:
    """What QoS looked like over a run."""

    underruns: int = 0
    underrun_time_s: float = 0.0
    deliveries: int = 0
    bytes_delivered: int = 0
    deadline_misses: int = 0
    max_lateness_s: float = 0.0

    @property
    def maintained(self) -> bool:
        """The paper's binary criterion: no underruns, no misses."""
        return self.underruns == 0 and self.deadline_misses == 0


class PlayoutBuffer:
    """A decoder buffer drained at constant bitrate, filled in bursts.

    Event-driven, no simulator needed: call :meth:`deliver` as data
    arrives (in non-decreasing time order) and :meth:`finish` at the end;
    the drain between events is computed analytically.

    Parameters
    ----------
    drain_rate_bps:
        Playback consumption rate (the MP3 bitrate).
    prebuffer_s:
        Playback starts once this much *playback time* is buffered
        (start-up delay the player accepts).
    capacity_bytes:
        Client buffer size; deliveries overflowing it are truncated
        (counted, since the Hotspot must respect client buffers).
    """

    def __init__(
        self,
        drain_rate_bps: float,
        prebuffer_s: float = 1.0,
        capacity_bytes: Optional[int] = None,
    ) -> None:
        if drain_rate_bps <= 0:
            raise ValueError("drain rate must be positive")
        if prebuffer_s < 0:
            raise ValueError("prebuffer must be >= 0")
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity must be positive or None")
        self.drain_rate_Bps = drain_rate_bps / 8.0
        self.prebuffer_s = prebuffer_s
        self.capacity_bytes = capacity_bytes
        self.level_bytes = 0.0
        self.playing = False
        #: True while playback is administratively paused (client churn);
        #: a suspended buffer neither drains nor auto-starts on delivery.
        self.suspended = False
        self._was_playing = False
        self.started_at_s: Optional[float] = None
        self._last_time = 0.0
        self._underrun_since: Optional[float] = None
        self.summary = QosSummary()
        #: Bytes truncated by the capacity clamp (float: exact
        #: conservation against the fractional drain model).
        self.overflow_bytes = 0.0
        #: (time, level) samples for plotting buffer occupancy.
        self.level_trace: List[Tuple[float, float]] = []

    def _advance(self, time_s: float) -> None:
        if time_s < self._last_time:
            raise ValueError(
                f"time went backwards: {time_s} < {self._last_time}"
            )
        elapsed = time_s - self._last_time
        self._last_time = time_s
        if not self.playing or elapsed == 0:
            return
        needed = elapsed * self.drain_rate_Bps
        if self._underrun_since is not None:
            # Already stalled: time passes, nothing drains.
            self.summary.underrun_time_s += elapsed
            return
        if needed <= self.level_bytes:
            self.level_bytes -= needed
        else:
            # Drains dry partway through the interval: stall starts.
            satisfied_s = self.level_bytes / self.drain_rate_Bps
            self.level_bytes = 0.0
            self.summary.underruns += 1
            self.summary.underrun_time_s += elapsed - satisfied_s
            self._underrun_since = self._last_time - (elapsed - satisfied_s)

    def advance_to(self, time_s: float) -> None:
        """Drain the buffer up to ``time_s`` without a delivery.

        Anyone reading :attr:`level_bytes` at a given simulation time must
        call this first, or they will see the level as of the last
        delivery (stall time is accounted as it accrues).
        """
        self._advance(time_s)

    def deliver(self, time_s: float, nbytes: int) -> None:
        """A burst of ``nbytes`` arrives at ``time_s``."""
        if nbytes < 0:
            raise ValueError("delivery must be >= 0 bytes")
        self._advance(time_s)
        self.summary.deliveries += 1
        self.summary.bytes_delivered += nbytes
        self.level_bytes += nbytes
        if self.capacity_bytes is not None and self.level_bytes > self.capacity_bytes:
            self.overflow_bytes += self.level_bytes - self.capacity_bytes
            self.level_bytes = float(self.capacity_bytes)
        if self._underrun_since is not None and self.level_bytes > 0:
            self._underrun_since = None  # stall relieved
        if not self.playing and not self.suspended:
            if self.level_bytes >= self.prebuffer_s * self.drain_rate_Bps:
                self.playing = True
                self.started_at_s = time_s
        self.level_trace.append((time_s, self.level_bytes))

    def pause(self, time_s: float) -> None:
        """Suspend playback at ``time_s`` (client left mid-stream).

        Drain is accounted up to the pause point; while suspended no
        bytes drain, no underruns accrue, and deliveries do not start
        playback.  Idempotent.
        """
        self._advance(time_s)
        if self.suspended:
            return
        self.suspended = True
        self._was_playing = self.playing
        self.playing = False
        self._underrun_since = None  # a paused player cannot stall

    def resume(self, time_s: float) -> None:
        """Resume playback at ``time_s`` from the buffered level."""
        self._advance(time_s)
        if not self.suspended:
            return
        self.suspended = False
        self.playing = self._was_playing

    def finish(self, time_s: float) -> QosSummary:
        """Close the run at ``time_s`` and return the summary."""
        self._advance(time_s)
        self.level_trace.append((time_s, self.level_bytes))
        return self.summary

    def playback_time_buffered_s(self) -> float:
        """Seconds of playback currently in the buffer."""
        return self.level_bytes / self.drain_rate_Bps

    # -- migration (repro.shard) -------------------------------------------

    def snapshot_state(self, time_s: float) -> dict:
        """Portable playback state at ``time_s`` (drains up to it first).

        Everything a peer simulator needs to resume this buffer exactly
        where it left off — level, playback/suspension flags and underrun
        accounting — as plain JSON-able scalars.  ``level_trace`` stays
        behind on purpose: it is a plotting aid, not playback state.
        """
        self._advance(time_s)
        summary = self.summary
        return {
            "level_bytes": self.level_bytes,
            "playing": self.playing,
            "suspended": self.suspended,
            "was_playing": self._was_playing,
            "started_at_s": self.started_at_s,
            "last_time": self._last_time,
            "underrun_since": self._underrun_since,
            "overflow_bytes": self.overflow_bytes,
            "underruns": summary.underruns,
            "underrun_time_s": summary.underrun_time_s,
            "deliveries": summary.deliveries,
            "bytes_delivered": summary.bytes_delivered,
            "deadline_misses": summary.deadline_misses,
            "max_lateness_s": summary.max_lateness_s,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a :meth:`snapshot_state` payload into this buffer.

        Meant for a freshly built buffer with the same drain rate,
        prebuffer and capacity as the snapshotted one; afterwards the
        buffer behaves as if every past delivery had happened here.
        """
        self.level_bytes = state["level_bytes"]
        self.playing = state["playing"]
        self.suspended = state["suspended"]
        self._was_playing = state["was_playing"]
        self.started_at_s = state["started_at_s"]
        self._last_time = state["last_time"]
        self._underrun_since = state["underrun_since"]
        self.overflow_bytes = state["overflow_bytes"]
        summary = self.summary
        summary.underruns = state["underruns"]
        summary.underrun_time_s = state["underrun_time_s"]
        summary.deliveries = state["deliveries"]
        summary.bytes_delivered = state["bytes_delivered"]
        summary.deadline_misses = state["deadline_misses"]
        summary.max_lateness_s = state["max_lateness_s"]
