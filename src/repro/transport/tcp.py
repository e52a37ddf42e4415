"""A compact TCP Reno for wireless studies.

Implements the behaviours that matter for the survey's transport-layer
story: slow start, congestion avoidance, fast retransmit/recovery on
triple duplicate ACKs, retransmission timeouts with Jacobson/Karels RTT
estimation and Karn's rule, and exponential RTO backoff.

The deliberate omissions (no three-way handshake, no receiver window
limit, byte-stream only, MSS-aligned segments) do not affect the
phenomenon under study: *any* loss halves the congestion window, so
wireless corruption loss is misread as congestion and throughput
collapses — the problem split connections and snoop agents fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.sim.events import Event, FirstOf
from repro.transport.path import NetworkPath, Segment

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


@dataclass
class TcpStats:
    """Counters for one TCP transfer."""

    segments_sent: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    bytes_acked: int = 0
    completed_at_s: Optional[float] = None
    rtt_samples: int = 0
    srtt_s: float = 0.0

    def goodput_bps(self, start_s: float = 0.0) -> float:
        """Payload throughput of the completed transfer."""
        if self.completed_at_s is None or self.completed_at_s <= start_s:
            return 0.0
        return self.bytes_acked * 8.0 / (self.completed_at_s - start_s)


class TcpReceiver:
    """Cumulative-ACK receiver with an out-of-order reassembly buffer."""

    def __init__(
        self,
        sim: "Simulator",
        reverse_path: NetworkPath,
        address: str = "client",
        peer: str = "server",
        on_data: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        self.sim = sim
        self.reverse_path = reverse_path
        self.address = address
        self.peer = peer
        self.on_data = on_data
        self.expected = 0
        self._out_of_order: Dict[int, int] = {}  # seq -> length
        self.bytes_received = 0
        self.acks_sent = 0
        self.duplicate_segments = 0

    def deliver(self, segment: Segment) -> None:
        """Path delivery callback for inbound data segments."""
        if segment.is_ack:
            return
        if segment.seq + segment.length_bytes <= self.expected:
            self.duplicate_segments += 1
        elif segment.seq == self.expected:
            self.expected += segment.length_bytes
            self.bytes_received += segment.length_bytes
            if self.on_data is not None:
                self.on_data(segment.length_bytes, self.sim.now)
            # Drain any contiguous out-of-order data.
            while self.expected in self._out_of_order:
                length = self._out_of_order.pop(self.expected)
                self.expected += length
                self.bytes_received += length
                if self.on_data is not None:
                    self.on_data(length, self.sim.now)
        else:
            self._out_of_order.setdefault(segment.seq, segment.length_bytes)
        self._send_ack()

    def _send_ack(self) -> None:
        self.acks_sent += 1
        ack = Segment(
            source=self.address,
            destination=self.peer,
            is_ack=True,
            ack=self.expected,
            length_bytes=0,
        )
        self.reverse_path.send(ack)


class TcpSender:
    """Reno sender transferring ``total_bytes`` over a lossy path.

    Parameters
    ----------
    path:
        Forward (data) path; its ``deliver`` should be the receiver's
        :meth:`TcpReceiver.deliver`.
    total_bytes:
        Transfer size.
    mss:
        Maximum segment size in payload bytes.
    initial_cwnd_segments:
        Initial congestion window.
    rto_min_s / rto_max_s:
        Bounds on the retransmission timeout.
    """

    def __init__(
        self,
        sim: "Simulator",
        path: NetworkPath,
        total_bytes: int,
        mss: int = 1460,
        address: str = "server",
        peer: str = "client",
        initial_cwnd_segments: float = 2.0,
        initial_ssthresh_segments: float = 64.0,
        rto_min_s: float = 0.2,
        rto_max_s: float = 60.0,
    ) -> None:
        if total_bytes <= 0:
            raise ValueError("transfer size must be positive")
        if mss <= 0:
            raise ValueError("MSS must be positive")
        self.sim = sim
        self.path = path
        self.total_bytes = total_bytes
        self.mss = mss
        self.address = address
        self.peer = peer
        self.cwnd = initial_cwnd_segments  # in segments (float)
        self.ssthresh = initial_ssthresh_segments
        self.rto_min_s = rto_min_s
        self.rto_max_s = rto_max_s
        self.stats = TcpStats()
        self.snd_una = 0  # oldest unacknowledged byte
        self.snd_nxt = 0  # next byte to send
        self._dupacks = 0
        self._in_fast_recovery = False
        self._send_times: Dict[int, float] = {}  # seq -> first-send time
        self._retransmitted: set[int] = set()
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto = 1.0
        self._rto_backoff = 1
        self._ack_event: Optional[Event] = None
        self._done: Optional[Event] = None

    # -- public API ---------------------------------------------------------

    def start(self) -> Event:
        """Begin the transfer; the event fires with :class:`TcpStats`."""
        if self._done is not None:
            raise RuntimeError("transfer already started")
        self._done = Event(self.sim)
        self.sim.process(self._sender_loop(), name=f"tcp:{self.address}")
        return self._done

    def on_ack(self, segment: Segment) -> None:
        """Reverse-path delivery callback for ACK segments."""
        if not segment.is_ack:
            return
        if segment.ack > self.snd_una:
            self._handle_new_ack(segment.ack)
        elif segment.ack == self.snd_una:
            self._dupacks += 1
            if self._in_fast_recovery:
                self.cwnd += 1.0  # window inflation per extra dupack
        self._wake()

    # -- ACK processing -------------------------------------------------------

    def _handle_new_ack(self, ack: int) -> None:
        newly_acked = ack - self.snd_una
        self.stats.bytes_acked += newly_acked
        # RTT sample per Karn's rule: only from never-retransmitted data.
        send_time = self._send_times.get(self.snd_una)
        if send_time is not None and self.snd_una not in self._retransmitted:
            self._update_rtt(self.sim.now - send_time)
        for seq in list(self._send_times):
            if seq < ack:
                self._send_times.pop(seq, None)
                self._retransmitted.discard(seq)
        self.snd_una = ack
        self._rto_backoff = 1
        if self._in_fast_recovery:
            # Full window deflation on the first new ACK.
            self.cwnd = self.ssthresh
            self._in_fast_recovery = False
        elif self.cwnd < self.ssthresh:
            self.cwnd += newly_acked / self.mss  # slow start
        else:
            self.cwnd += newly_acked / (self.cwnd * self.mss)  # AIMD
        self._dupacks = 0

    def _update_rtt(self, rtt: float) -> None:
        self.stats.rtt_samples += 1
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - rtt)
            self._srtt = 0.875 * self._srtt + 0.125 * rtt
        self.stats.srtt_s = self._srtt
        self._rto = min(
            max(self._srtt + 4.0 * self._rttvar, self.rto_min_s), self.rto_max_s
        )

    # -- transmission -----------------------------------------------------------

    def _window_bytes(self) -> int:
        return int(self.cwnd * self.mss)

    def _send_segment(self, seq: int, retransmission: bool) -> None:
        length = min(self.mss, self.total_bytes - seq)
        segment = Segment(
            source=self.address,
            destination=self.peer,
            seq=seq,
            length_bytes=length,
        )
        self.stats.segments_sent += 1
        if retransmission:
            self.stats.retransmissions += 1
            self._retransmitted.add(seq)
            bus = self.sim.trace
            if bus.enabled:
                bus.emit(
                    "transport",
                    self.address,
                    "retransmit",
                    seq=seq,
                    length=length,
                )
        else:
            self._send_times.setdefault(seq, self.sim.now)
        self.path.send(segment)

    def _wake(self) -> None:
        if self._ack_event is not None and not self._ack_event.triggered:
            pending, self._ack_event = self._ack_event, None
            pending.succeed()

    def _sender_loop(self):
        while self.snd_una < self.total_bytes:
            # Fill the window.
            while (
                self.snd_nxt < self.total_bytes
                and self.snd_nxt - self.snd_una < self._window_bytes()
            ):
                self._send_segment(self.snd_nxt, retransmission=False)
                self.snd_nxt = min(
                    self.snd_nxt + self.mss, self.total_bytes
                )
            # Fast retransmit on triple duplicate ACK.
            if self._dupacks >= 3 and not self._in_fast_recovery:
                self.stats.fast_retransmits += 1
                bus = self.sim.trace
                if bus.enabled:
                    bus.emit(
                        "transport",
                        self.address,
                        "fast-retransmit",
                        seq=self.snd_una,
                        cwnd=self.cwnd,
                    )
                flight_segments = max(
                    (self.snd_nxt - self.snd_una) / self.mss, 2.0
                )
                self.ssthresh = max(flight_segments / 2.0, 2.0)
                self.cwnd = self.ssthresh + 3.0
                self._in_fast_recovery = True
                self._send_segment(self.snd_una, retransmission=True)
            # Wait for an ACK or an RTO.
            self._ack_event = Event(self.sim)
            ack_event = self._ack_event
            rto = self.sim.timeout(self._rto * self._rto_backoff)
            yield FirstOf(self.sim, ack_event, rto)
            if not ack_event.processed and self.snd_una < self.total_bytes:
                # Retransmission timeout: Reno collapses to one segment.
                self._ack_event = None
                self.stats.timeouts += 1
                bus = self.sim.trace
                if bus.enabled:
                    bus.emit(
                        "transport",
                        self.address,
                        "rto",
                        seq=self.snd_una,
                        rto_s=self._rto * self._rto_backoff,
                        cwnd=self.cwnd,
                    )
                flight_segments = max(
                    (self.snd_nxt - self.snd_una) / self.mss, 2.0
                )
                self.ssthresh = max(flight_segments / 2.0, 2.0)
                self.cwnd = 1.0
                self._in_fast_recovery = False
                self._dupacks = 0
                self._rto_backoff = min(self._rto_backoff * 2, 64)
                self.snd_nxt = self.snd_una  # go-back-N from the hole
        self.stats.completed_at_s = self.sim.now
        if self._done is not None:
            self._done.succeed(self.stats)

    def __repr__(self) -> str:
        return (
            f"<TcpSender una={self.snd_una} nxt={self.snd_nxt} "
            f"cwnd={self.cwnd:.1f}>"
        )
