"""A one-way network path with bandwidth, delay and loss.

:class:`NetworkPath` serialises segments at its bandwidth (a single
bottleneck queue), adds propagation delay, and drops segments according
to a pluggable loss process.  Two of them back-to-back form a duplex
link; chains of them (wired + wireless) form the split/snoop topologies
in :mod:`repro.transport.mitigation`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

_segment_ids = itertools.count()


@dataclass
class Segment:
    """A transport segment.

    ``seq`` numbers bytes (TCP-style): the segment covers
    ``[seq, seq + length_bytes)``.  For pure ACKs ``length_bytes`` is the
    header-only cost and ``ack`` carries the cumulative acknowledgement.
    """

    source: str
    destination: str
    seq: int = 0
    length_bytes: int = 0
    is_ack: bool = False
    ack: int = 0
    payload: Any = None
    uid: int = field(default_factory=lambda: next(_segment_ids))

    def __repr__(self) -> str:
        kind = "ACK" if self.is_ack else "DATA"
        return (
            f"<Segment {kind} {self.source}->{self.destination} "
            f"seq={self.seq} len={self.length_bytes} ack={self.ack}>"
        )


#: Loss process: ``f(segment, now) -> True`` if the segment survives.
LossProcess = Callable[[Segment, float], bool]


class NetworkPath:
    """One-way bottleneck path: FIFO serialisation + delay + loss.

    Parameters
    ----------
    bandwidth_bps:
        Bottleneck rate; segments serialise one at a time.
    delay_s:
        One-way propagation delay added after serialisation.
    loss_process:
        Survival sampler; default never drops.
    deliver:
        Callback ``f(segment)`` at the far end.
    header_bytes:
        Added to every segment's wire size.
    """

    def __init__(
        self,
        sim: "Simulator",
        bandwidth_bps: float,
        delay_s: float,
        deliver: Callable[[Segment], None],
        loss_process: Optional[LossProcess] = None,
        header_bytes: int = 40,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if delay_s < 0:
            raise ValueError("delay must be >= 0")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.deliver = deliver
        self.loss_process = loss_process or (lambda segment, now: True)
        self.header_bytes = header_bytes
        self._queue: Store = Store(sim)
        self.segments_in = 0
        self.segments_delivered = 0
        self.segments_dropped = 0
        self.bytes_delivered = 0
        sim.process(self._pump(), name="network-path")

    def send(self, segment: Segment) -> None:
        """Enqueue a segment (non-blocking; the path serialises it)."""
        self.segments_in += 1
        self._queue.add(segment)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def wire_time_s(self, segment: Segment) -> float:
        """Serialisation time of ``segment`` on this path."""
        return (segment.length_bytes + self.header_bytes) * 8.0 / self.bandwidth_bps

    def _pump(self):
        while True:
            segment: Segment = yield self._queue.get()
            yield self.sim.timeout(self.wire_time_s(segment))
            # Propagation is pipelined: schedule delivery, keep serialising.
            self.sim.process(self._propagate(segment), name="path-propagate")

    def _propagate(self, segment: Segment):
        yield self.sim.timeout(self.delay_s)
        if self.loss_process(segment, self.sim.now):
            self.segments_delivered += 1
            self.bytes_delivered += segment.length_bytes
            self.deliver(segment)
        else:
            self.segments_dropped += 1

    def __repr__(self) -> str:
        return (
            f"<NetworkPath {self.bandwidth_bps / 1e6:.2f} Mb/s "
            f"{self.delay_s * 1e3:.1f} ms queue={self.queue_depth}>"
        )
