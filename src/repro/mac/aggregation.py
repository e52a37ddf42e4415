"""MAC-layer packet aggregation.

The paper (§1): *"Longer mobile sleep periods can be created by
aggregating MAC layer packets."*  Small upper-layer packets are buffered
and released as one large burst, so a power-saving station pays the
per-wake overhead (radio transition, beacon wait, PS-Poll exchange, PLCP
preambles) once per burst instead of once per packet.

:class:`PacketAggregator` is deliberately transport-agnostic: it buffers
opaque ``(length, payload)`` packets and hands the aggregate to a sink
callback when either the byte threshold or the age limit is reached.  The
age limit bounds the latency cost — the aggregation trade-off the survey
highlights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: A buffered packet: (length in bytes, opaque payload).
Packet = Tuple[int, Any]

#: Sink signature: receives the flushed packet list and total byte count.
FlushSink = Callable[[Sequence[Packet], int], None]


@dataclass
class AggregatorStats:
    """Counters describing aggregation behaviour."""

    packets_in: int = 0
    bytes_in: int = 0
    flushes: int = 0
    size_flushes: int = 0
    timer_flushes: int = 0
    forced_flushes: int = 0

    @property
    def mean_burst_bytes(self) -> float:
        """Average flushed burst size in bytes."""
        return self.bytes_in / self.flushes if self.flushes else 0.0

    @property
    def mean_burst_packets(self) -> float:
        """Average number of packets per flushed burst."""
        return self.packets_in / self.flushes if self.flushes else 0.0


class PacketAggregator:
    """Buffer packets until a size threshold or an age limit triggers a flush.

    Parameters
    ----------
    sim:
        Owning simulator.
    sink:
        Called as ``sink(packets, total_bytes)`` on each flush.
    flush_bytes:
        Flush as soon as at least this many bytes are buffered.
    max_delay_s:
        Flush no later than this long after the *oldest* buffered packet
        arrived (bounds the latency added by aggregation).  ``None``
        disables the timer (size-only aggregation).
    """

    def __init__(
        self,
        sim: "Simulator",
        sink: FlushSink,
        flush_bytes: int,
        max_delay_s: Optional[float] = None,
    ) -> None:
        if flush_bytes <= 0:
            raise ValueError("flush_bytes must be positive")
        if max_delay_s is not None and max_delay_s <= 0:
            raise ValueError("max_delay_s must be positive or None")
        self.sim = sim
        self.sink = sink
        self.flush_bytes = flush_bytes
        self.max_delay_s = max_delay_s
        self._buffer: List[Packet] = []
        self._buffered_bytes = 0
        self._timer_generation = 0
        self.stats = AggregatorStats()

    # -- input ------------------------------------------------------------

    @property
    def buffered_bytes(self) -> int:
        return self._buffered_bytes

    def offer(self, length_bytes: int, payload: Any = None) -> None:
        """Add one packet; may trigger an immediate size-based flush."""
        if length_bytes <= 0:
            raise ValueError("packet length must be positive")
        self.stats.packets_in += 1
        self.stats.bytes_in += length_bytes
        first_in_burst = not self._buffer
        self._buffer.append((length_bytes, payload))
        self._buffered_bytes += length_bytes
        if self._buffered_bytes >= self.flush_bytes:
            self.stats.size_flushes += 1
            self._flush()
        elif first_in_burst and self.max_delay_s is not None:
            self._arm_timer()

    def flush_now(self) -> None:
        """Force out whatever is buffered (used at shutdown/handoff)."""
        if self._buffer:
            self.stats.forced_flushes += 1
            self._flush()

    # -- internals ------------------------------------------------------------

    def _arm_timer(self) -> None:
        self._timer_generation += 1
        generation = self._timer_generation

        def timer_body():
            yield self.sim.timeout(self.max_delay_s)
            # A flush since we were armed invalidates this timer.
            if generation == self._timer_generation and self._buffer:
                self.stats.timer_flushes += 1
                self._flush()

        self.sim.process(timer_body(), name="aggregator-timer")

    def _flush(self) -> None:
        packets, self._buffer = self._buffer, []
        total, self._buffered_bytes = self._buffered_bytes, 0
        self._timer_generation += 1  # cancel any armed timer
        self.stats.flushes += 1
        self.sink(packets, total)

    def __repr__(self) -> str:
        return (
            f"<PacketAggregator {self._buffered_bytes}/{self.flush_bytes}B "
            f"buffered, {self.stats.flushes} flushes>"
        )
