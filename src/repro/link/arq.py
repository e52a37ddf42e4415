"""Automatic Repeat reQuest protocols with energy accounting.

The survey's link-layer trade-off is energy per *delivered* bit: ARQ pays
for retransmissions when the channel errs, FEC pays a constant coding
overhead.  This module provides the ARQ side: stop-and-wait running over
a :class:`BitPipe` — a half-duplex link abstraction with a rate,
propagation delay, transmit/receive powers and a pluggable per-frame
error process.

The protocol guarantees exactly-once, in-order delivery to the receiver
(verified by property tests), and records the energy both ends spent in
:class:`ArqStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: Error process: ``f(bits, now) -> True`` if the frame survives.
ErrorProcess = Callable[[int, float], bool]


@dataclass
class ArqStats:
    """Energy and traffic accounting for one ARQ transfer."""

    data_transmissions: int = 0
    ack_transmissions: int = 0
    data_losses: int = 0
    ack_losses: int = 0
    timeouts: int = 0
    tx_energy_j: float = 0.0
    rx_energy_j: float = 0.0
    delivered_payload_bits: int = 0
    elapsed_s: float = 0.0

    @property
    def total_energy_j(self) -> float:
        return self.tx_energy_j + self.rx_energy_j

    @property
    def energy_per_delivered_bit_j(self) -> float:
        """The survey's figure of merit; inf if nothing was delivered."""
        if self.delivered_payload_bits == 0:
            return float("inf")
        return self.total_energy_j / self.delivered_payload_bits

    @property
    def retransmissions(self) -> int:
        """Data transmissions beyond the first attempt of each frame."""
        return self.data_transmissions - self._unique_frames

    _unique_frames: int = 0


class BitPipe:
    """A half-duplex point-to-point link with loss and energy costs.

    Parameters
    ----------
    rate_bps:
        Link bit rate.
    error_process:
        ``f(bits, now) -> survives``; defaults to a perfect channel.
    tx_power_w / rx_power_w:
        Power each end draws during a frame's airtime.
    prop_delay_s:
        One-way propagation delay.
    header_bits:
        Per-frame header overhead added to every transmission.
    """

    def __init__(
        self,
        sim: "Simulator",
        rate_bps: float,
        error_process: Optional[ErrorProcess] = None,
        tx_power_w: float = 1.4,
        rx_power_w: float = 1.0,
        prop_delay_s: float = 1e-6,
        header_bits: int = 224,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if prop_delay_s < 0 or header_bits < 0:
            raise ValueError("delay and header bits must be >= 0")
        self.sim = sim
        self.rate_bps = rate_bps
        self.error_process = error_process or (lambda bits, now: True)
        self.tx_power_w = tx_power_w
        self.rx_power_w = rx_power_w
        self.prop_delay_s = prop_delay_s
        self.header_bits = header_bits

    def airtime_s(self, payload_bits: int) -> float:
        """Time on air for a frame with ``payload_bits`` of payload."""
        return (payload_bits + self.header_bits) / self.rate_bps

    def send(self, payload_bits: int, stats: ArqStats, is_ack: bool = False):
        """Transmit one frame; yield the process, returns survival bool.

        Charges transmit energy to ``stats`` unconditionally and receive
        energy only when the frame survives (a corrupted frame still costs
        the receiver its airtime; we charge it too, as real radios listen
        either way).
        """
        return self.sim.process(
            self._send_body(payload_bits, stats, is_ack), name="bitpipe-send"
        )

    def _send_body(self, payload_bits: int, stats: ArqStats, is_ack: bool):
        airtime = self.airtime_s(payload_bits)
        if is_ack:
            stats.ack_transmissions += 1
        else:
            stats.data_transmissions += 1
        stats.tx_energy_j += self.tx_power_w * airtime
        stats.rx_energy_j += self.rx_power_w * airtime
        yield self.sim.timeout(airtime + self.prop_delay_s)
        survives = self.error_process(payload_bits + self.header_bits, self.sim.now)
        if not survives:
            if is_ack:
                stats.ack_losses += 1
            else:
                stats.data_losses += 1
        bus = self.sim.trace
        if bus.enabled:
            bus.emit(
                "link",
                "bitpipe",
                "frame",
                ack=is_ack,
                bits=payload_bits,
                lost=not survives,
            )
        return survives


class StopAndWaitArq:
    """Send one frame, wait for its ACK, repeat."""

    def __init__(
        self,
        sim: "Simulator",
        forward: BitPipe,
        reverse: Optional[BitPipe] = None,
        frame_bits: int = 8000,
        ack_bits: int = 112,
        timeout_s: Optional[float] = None,
        max_attempts: int = 50,
    ) -> None:
        if frame_bits <= 0 or ack_bits <= 0:
            raise ValueError("frame and ack sizes must be positive")
        if max_attempts < 1:
            raise ValueError("need at least one attempt")
        self.sim = sim
        self.forward = forward
        self.reverse = reverse or forward
        self.frame_bits = frame_bits
        self.ack_bits = ack_bits
        if timeout_s is None:
            timeout_s = (
                self.forward.airtime_s(frame_bits)
                + self.reverse.airtime_s(ack_bits)
                + 2 * self.forward.prop_delay_s
            ) * 1.5
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.stats = ArqStats()
        self.delivered: List[int] = []

    def _deliver(self, sequence: int) -> None:
        self.delivered.append(sequence)
        self.stats.delivered_payload_bits += self.frame_bits
        bus = self.sim.trace
        if bus.enabled:
            bus.emit(
                "link",
                type(self).__name__,
                "deliver",
                seq=sequence,
                retransmissions=self.stats.data_transmissions
                - len(self.delivered),
            )

    def transfer(self, n_frames: int) -> Event:
        """Run the protocol for ``n_frames``; the event fires with stats.

        The event's value is the :class:`ArqStats`; frames that exhaust
        ``max_attempts`` are abandoned (counted, not delivered).
        """
        if n_frames < 0:
            raise ValueError("frame count must be >= 0")
        self.stats._unique_frames = n_frames
        start = self.sim.now

        def body():
            yield from self._run(n_frames)
            self.stats.elapsed_s = self.sim.now - start
            return self.stats

        return self.sim.process(body(), name=type(self).__name__)

    def _run(self, n_frames: int):
        for sequence in range(n_frames):
            attempts = 0
            while attempts < self.max_attempts:
                attempts += 1
                data_ok = yield self.forward.send(self.frame_bits, self.stats)
                if not data_ok:
                    self.stats.timeouts += 1
                    continue
                self._deliver(sequence)
                ack_ok = yield self.reverse.send(
                    self.ack_bits, self.stats, is_ack=True
                )
                if ack_ok:
                    break
                # Lost ACK: the sender will retransmit; the receiver must
                # suppress the duplicate (modelled by not re-delivering).
                self.stats.timeouts += 1
                yield from self._retransmit_until_acked()
                break

    def _retransmit_until_acked(self):
        """After a lost ACK, retransmit (duplicate) until an ACK lands."""
        attempts = 0
        while attempts < self.max_attempts:
            attempts += 1
            data_ok = yield self.forward.send(self.frame_bits, self.stats)
            if not data_ok:
                self.stats.timeouts += 1
                continue
            ack_ok = yield self.reverse.send(self.ack_bits, self.stats, is_ack=True)
            if ack_ok:
                return
            self.stats.timeouts += 1
