"""Base-station mitigations for TCP over wireless.

Two classic fixes for TCP's congestion misinterpretation of wireless loss:

- **Split connection** (I-TCP style): the end-to-end connection is broken
  at the base station into a wired leg and a wireless leg, each running
  its own TCP.  Wireless losses are recovered locally on the short
  wireless RTT and never reach the wired sender.
  :func:`run_split_connection` wires this topology up.
- **Snoop** (Berkeley style): the base station transparently caches data
  segments heading to the mobile and watches the returning ACK stream.
  Duplicate ACKs for a cached segment trigger a *local* retransmission
  and are suppressed, so the fixed sender never sees the loss.
  :class:`SnoopAgent` sits between the wired and wireless paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.transport.path import NetworkPath, Segment
from repro.transport.tcp import TcpReceiver, TcpSender

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class SnoopAgent:
    """A transparent TCP-aware cache at the wired/wireless boundary.

    Parameters
    ----------
    wireless_path:
        Path from the base station to the mobile.
    wired_reverse_path:
        Path carrying ACKs back to the fixed sender.
    dupack_threshold:
        Duplicate ACKs tolerated before a local retransmission.
    """

    def __init__(
        self,
        sim: "Simulator",
        wireless_path: NetworkPath,
        wired_reverse_path: NetworkPath,
        dupack_threshold: int = 1,
    ) -> None:
        if dupack_threshold < 1:
            raise ValueError("dupack threshold must be >= 1")
        self.sim = sim
        self.wireless_path = wireless_path
        self.wired_reverse_path = wired_reverse_path
        self.dupack_threshold = dupack_threshold
        self._cache: Dict[int, Segment] = {}
        self._last_ack = 0
        self._dupacks = 0
        self.local_retransmissions = 0
        self.acks_suppressed = 0
        self.segments_cached = 0

    # -- forward (data) direction ------------------------------------------

    def forward_data(self, segment: Segment) -> None:
        """Wired-path delivery callback: cache and relay toward the mobile."""
        if not segment.is_ack:
            self._cache[segment.seq] = segment
            self.segments_cached += 1
        self.wireless_path.send(segment)

    # -- reverse (ACK) direction -----------------------------------------------

    def backward_ack(self, segment: Segment) -> None:
        """Wireless-reverse delivery callback: filter the ACK stream."""
        if not segment.is_ack:
            self.wired_reverse_path.send(segment)
            return
        if segment.ack > self._last_ack:
            # Fresh ACK: purge the cache below it and forward.
            for seq in [s for s in self._cache if s < segment.ack]:
                del self._cache[seq]
            self._last_ack = segment.ack
            self._dupacks = 0
            self.wired_reverse_path.send(segment)
            return
        # Duplicate ACK: the mobile is missing `segment.ack`.
        self._dupacks += 1
        cached = self._cache.get(segment.ack)
        if cached is not None and self._dupacks >= self.dupack_threshold:
            self.local_retransmissions += 1
            self._dupacks = 0
            self.acks_suppressed += 1
            self.wireless_path.send(cached)
            return
        if cached is not None:
            # We will handle it locally; hide the dupack from the sender.
            self.acks_suppressed += 1
            return
        self.wired_reverse_path.send(segment)


def run_split_connection(
    sim: "Simulator",
    total_bytes: int,
    wired_bandwidth_bps: float,
    wired_delay_s: float,
    wireless_bandwidth_bps: float,
    wireless_delay_s: float,
    wireless_loss,
    mss: int = 1460,
):
    """Build and start a split-connection transfer.

    Two independent TCP connections in series; the proxy at the base
    station starts relaying over the wireless leg once data arrives from
    the wired leg (modelled by launching the wireless transfer with the
    same size — the wired leg is clean and always ahead, since its
    bandwidth-delay characteristics dominate only when slower, in which
    case the wireless leg idles harmlessly).

    Returns ``(wired_sender, wireless_sender, done_event)`` where the
    event fires when *both* legs complete; its value is the wireless-leg
    stats (which bound end-to-end performance).
    """
    # Wired leg: fixed host -> base station.
    wired_reverse = NetworkPath(
        sim, wired_bandwidth_bps, wired_delay_s,
        deliver=lambda s: wired_sender.on_ack(s),
    )
    wired_receiver = TcpReceiver(sim, wired_reverse, address="base", peer="server")
    wired_forward = NetworkPath(
        sim, wired_bandwidth_bps, wired_delay_s, deliver=wired_receiver.deliver
    )
    wired_sender = TcpSender(
        sim, wired_forward, total_bytes, mss=mss, address="server", peer="base"
    )

    # Wireless leg: base station -> mobile, with loss.
    wireless_reverse = NetworkPath(
        sim, wireless_bandwidth_bps, wireless_delay_s,
        deliver=lambda s: wireless_sender.on_ack(s),
    )
    mobile = TcpReceiver(sim, wireless_reverse, address="mobile", peer="base")
    wireless_forward = NetworkPath(
        sim, wireless_bandwidth_bps, wireless_delay_s,
        deliver=mobile.deliver, loss_process=wireless_loss,
    )
    wireless_sender = TcpSender(
        sim, wireless_forward, total_bytes, mss=mss, address="base", peer="mobile"
    )

    from repro.sim.events import Event

    done = Event(sim)

    def supervisor():
        wired_done = wired_sender.start()
        wireless_done = wireless_sender.start()
        yield wired_done
        yield wireless_done
        done.succeed(wireless_sender.stats)

    sim.process(supervisor(), name="split-connection")
    return wired_sender, wireless_sender, done
