"""802.11 distributed coordination function (CSMA/CA).

Each :class:`DcfStation` contends for the medium with the standard DCF
procedure: wait for the channel to be idle for a DIFS, count down a random
backoff (frozen while the channel is busy), transmit, and expect an ACK a
SIFS later.  Missing ACKs double the contention window (binary exponential
backoff) up to ``cw_max``; after ``retry_limit`` retries the frame is
dropped.  Broadcast frames are sent once and never acknowledged, per the
standard.

Energy accounting: the transmitter's radio is moved to ``tx`` for the
frame's airtime; receivers get the receive-vs-listen power delta added as
an impulse for the frame airtime (see ``Radio.add_energy_impulse``), which
avoids micro-managing rx transitions at microsecond scale while keeping
the energy integral correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.mac.frames import BROADCAST, Dot11Timing, Frame, FrameKind
from repro.mac.medium import Medium
from repro.sim.events import Event
from repro.sim.events import FirstOf as _FirstOf
from repro.sim.events import Timeout as _Timeout
from repro.sim.events import chain
from repro.sim.resources import Store
from repro.sim.streams import Random, RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.powersave import MicroNapPolicy
    from repro.phy.radio import Radio
    from repro.sim.core import Simulator


@dataclass(slots=True)
class DcfConfig:
    """Per-station DCF parameters."""

    #: PHY rate for data frames (802.11b: 1/2/5.5/11 Mb/s).
    rate_bps: float = 11_000_000.0
    timing: Dot11Timing = field(default_factory=Dot11Timing)
    #: Transmit queue length; None = unbounded.
    queue_capacity: Optional[int] = None
    #: Optional ARF/AARF controller; when set, data frames are stamped
    #: with its current rate and per-attempt outcomes are reported to it.
    rate_controller: Optional[object] = None
    #: Data frames with at least this many payload bytes are protected by
    #: an RTS/CTS exchange; None disables RTS/CTS entirely.
    rts_threshold_bytes: Optional[int] = None


@dataclass(slots=True)
class _QueuedFrame:
    frame: Frame
    #: Fires True/False on ACK/drop; None when nobody waits on the frame.
    done: Optional[Event]


class DcfStation:
    """A station speaking DCF on a shared :class:`Medium`.

    Parameters
    ----------
    sim, medium, address:
        Simulator, channel and this station's unique address.
    rng:
        Random stream for backoff draws (one per station keeps runs
        reproducible under composition).  Defaults to
        ``RandomStreams(0).stream(address)``.
    config:
        DCF parameters.
    radio:
        Optional :class:`~repro.phy.radio.Radio` to drive/charge for
        energy accounting.
    on_receive:
        Callback ``f(frame)`` invoked for each *new* (deduplicated) data
        frame addressed to this station.
    power_policy:
        Optional :class:`~repro.mac.powersave.MicroNapPolicy` that hears
        of overheard reservations and of this station's finished
        exchanges, and naps through the former.  ``None`` keeps the
        radio on with zero dispatch overhead.
    """

    def __init__(
        self,
        sim: "Simulator",
        medium: Medium,
        address: str,
        rng: Optional[Random] = None,
        config: Optional[DcfConfig] = None,
        radio: Optional["Radio"] = None,
        on_receive: Optional[Callable[[Frame], None]] = None,
        power_policy: Optional["MicroNapPolicy"] = None,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.address = address
        self.rng = rng or RandomStreams(0).stream(address)
        self.config = config or DcfConfig()
        self.radio = radio
        self.on_receive = on_receive
        self.power_policy = power_policy
        self._queue: Store = Store(sim, capacity=self.config.queue_capacity)
        self._awaiting_ack: Optional[Event] = None
        self._awaiting_cts: Optional[Event] = None
        #: ACKs/CTSs owed, from the asking frame until the radio is back.
        self._pending_acks = 0
        self._tx_in_progress = 0
        #: Virtual carrier sense: medium reserved (by overheard RTS/CTS
        #: duration fields) until this simulation time.
        self._nav_until = 0.0
        self.rts_sent = 0
        self.cts_received = 0
        self._last_seq_from: Dict[str, int] = {}
        self._rx_model: Any = None  # _charge_rx's cache key and value
        self._rx_delta_w: Optional[float] = None
        # Statistics.
        self.frames_queued = 0
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.retransmissions = 0
        self.bytes_received = 0
        self.bytes_sent = 0
        if power_policy is not None:
            power_policy.bind(self)
        medium.register(self)
        self._sender = sim.process(self._sender_loop(), name=f"dcf:{address}")

    # -- public API ---------------------------------------------------------

    @property
    def timing(self) -> Dot11Timing:
        return self.config.timing

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def mac_quiescent(self) -> bool:
        """True when no frame is queued, in flight, or awaiting an ACK.

        Power-save logic must not move the radio to a non-communicating
        state while the MAC still owes the air an ACK or a retry.
        """
        return (
            len(self._queue) == 0
            and self._tx_in_progress == 0
            and self._pending_acks == 0
        )

    def send(
        self,
        destination: str,
        payload_bytes: int,
        payload: Any = None,
        more_data: bool = False,
        *,
        notify: bool = True,
    ) -> Optional[Event]:
        """Queue a data frame; the event fires True/False on ACK/drop.

        With ``notify=False`` the frame is fire-and-forget: it goes out
        exactly as before, but no completion event is made or triggered,
        and the call returns None.
        """
        controller = self.config.rate_controller
        rate = (
            controller.current_rate_bps if controller is not None
            else self.config.rate_bps
        )
        frame = Frame(
            kind=FrameKind.DATA,
            source=self.address,
            destination=destination,
            payload_bytes=payload_bytes,
            rate_bps=rate,
            more_data=more_data,
            payload=payload,
        )
        return self.enqueue_frame(frame, notify=notify)

    def enqueue_frame(self, frame: Frame, *, notify: bool = True) -> Optional[Event]:
        """Queue an arbitrary pre-built frame (used by PSM/EC-MAC layers).

        ``notify`` as for :meth:`send`.
        """
        done = Event(self.sim) if notify else None
        self.frames_queued += 1
        self._queue.add(_QueuedFrame(frame, done))
        return done

    # -- medium sink -----------------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        """Deliver a clean frame from the medium."""
        if self.radio is not None and not self.radio.can_communicate:
            # Dozing / powered-off / mid-transition radios hear nothing.
            return
        self._charge_rx(frame)
        policy = self.power_policy
        if (
            frame.nav_duration_s > 0
            and frame.destination not in (self.address, BROADCAST)
        ):
            # Overheard reservation: defer for the announced exchange.
            self._nav_until = max(
                self._nav_until, self.sim.now + frame.nav_duration_s
            )
            if policy is not None:
                policy.on_nav_set(self._nav_until, frame)
        elif (
            policy is not None
            and frame.kind is FrameKind.DATA
            and frame.destination not in (self.address, BROADCAST)
        ):
            # Overheard foreign data: the exchange implicitly owns the
            # medium for the SIFS + ACK tail (802.11 duration semantics
            # this simulator does not stamp on plain data frames).  This
            # never touches the NAV -- it only informs the power policy.
            tail_until = (
                self.sim.now
                + self.timing.sifs_s
                + self.timing.ack_airtime_s()
            )
            policy.on_nav_set(tail_until, frame)
        if frame.kind is FrameKind.ACK:
            if frame.destination == self.address and self._awaiting_ack is not None:
                pending, self._awaiting_ack = self._awaiting_ack, None
                pending.succeed(True)
            return
        if frame.kind is FrameKind.RTS:
            if frame.destination == self.address:
                self._send_cts(frame)
            return
        if frame.kind is FrameKind.CTS:
            if frame.destination == self.address and self._awaiting_cts is not None:
                pending, self._awaiting_cts = self._awaiting_cts, None
                pending.succeed(True)
            return
        if frame.kind is FrameKind.DATA and frame.destination == self.address:
            self._send_ack(frame)
            if self._is_duplicate(frame):
                return
            self.bytes_received += frame.payload_bytes
            self._deliver(frame)
            return
        if frame.destination in (self.address, BROADCAST):
            self._handle_control(frame)

    def _deliver(self, frame: Frame) -> None:
        if self.on_receive is not None:
            self.on_receive(frame)

    def _handle_control(self, frame: Frame) -> None:
        """Hook for subclasses (beacons, PS-Polls, schedules)."""

    def _is_duplicate(self, frame: Frame) -> bool:
        last = self._last_seq_from.get(frame.source)
        if last == frame.seq:
            return True
        self._last_seq_from[frame.source] = frame.seq
        return False

    def _send_cts(self, rts_frame: Frame) -> None:
        # Propagate the reservation, less the SIFS + our own airtime.
        remaining = max(
            rts_frame.nav_duration_s
            - self.timing.sifs_s
            - self.timing.cts_airtime_s(),
            0.0,
        )
        self._respond(
            Frame(FrameKind.CTS, self.address, rts_frame.source,
                  nav_duration_s=remaining)
        )

    def _send_ack(self, data_frame: Frame) -> None:
        self._respond(Frame(FrameKind.ACK, self.address, data_frame.source))

    def _respond(self, frame: Frame) -> None:
        """Send an ACK or CTS a SIFS from now, owing it from this call."""
        self._pending_acks += 1
        _Timeout(self.sim, self.timing.sifs_s).callbacks.append(
            lambda _timer: self._response_on_air(frame)
        )

    # -- transmit path ----------------------------------------------------------

    def _sender_loop(self):
        while True:
            entry: _QueuedFrame = yield self._queue.get()
            self._tx_in_progress += 1
            try:
                success = yield from self._contend_and_send(entry.frame)
            finally:
                self._tx_in_progress -= 1
            if success:
                self.frames_delivered += 1
                self.bytes_sent += entry.frame.payload_bytes
            else:
                self.frames_dropped += 1
            if entry.done is not None:
                entry.done.succeed(success)
            if self.power_policy is not None:
                self.power_policy.on_exchange_end(self.sim.now)

    def _contend_and_send(self, frame: Frame):
        """Full DCF exchange for one frame; returns success as a bool."""
        timing = self.timing
        expect_ack = frame.destination != BROADCAST and frame.kind is FrameKind.DATA
        contention_window = timing.cw_min
        controller = self.config.rate_controller if expect_ack else None
        attempt = 0
        use_rts = (
            self.config.rts_threshold_bytes is not None
            and frame.kind is FrameKind.DATA
            and frame.destination != BROADCAST
            and frame.payload_bytes >= self.config.rts_threshold_bytes
        )
        while True:
            if controller is not None:
                frame.rate_bps = controller.current_rate_bps
            yield from self._contention(contention_window)
            if use_rts:
                cleared = yield from self._rts_exchange(frame)
                if not cleared:
                    # RTS collided or CTS lost: back off and retry; the
                    # wasted airtime was one short control frame, not the
                    # whole data frame -- the point of the mechanism.
                    attempt += 1
                    self.retransmissions += 1
                    if attempt > timing.retry_limit:
                        self.retransmissions -= 1
                        return False
                    contention_window = min(
                        2 * contention_window + 1, timing.cw_max
                    )
                    continue
                # Channel reserved: data goes a SIFS after the CTS.
                yield self.sim.timeout(timing.sifs_s)
            on_air_ok = yield from self._on_air(frame)
            if not expect_ack:
                return on_air_ok
            self._awaiting_ack = Event(self.sim)
            ack_event = self._awaiting_ack
            timeout = _Timeout(self.sim, timing.ack_timeout_s())
            yield _FirstOf(self.sim, ack_event, timeout)
            if ack_event._state == 2 and ack_event._ok:
                if controller is not None:
                    controller.on_success()
                return True
            self._awaiting_ack = None
            if controller is not None:
                controller.on_failure()
            attempt += 1
            self.retransmissions += 1
            bus = self.sim.trace
            if attempt > timing.retry_limit:
                self.retransmissions -= 1  # the final attempt was a drop
                if bus.enabled:
                    bus.emit(
                        "mac",
                        self.address,
                        "drop",
                        destination=frame.destination,
                        attempts=attempt,
                    )
                return False
            if bus.enabled:
                bus.emit(
                    "mac",
                    self.address,
                    "retry",
                    destination=frame.destination,
                    attempt=attempt,
                    cw=contention_window,
                )
            contention_window = min(2 * contention_window + 1, timing.cw_max)

    def _rts_exchange(self, data_frame: Frame):
        """Send an RTS and wait for the CTS; returns True when cleared."""
        timing = self.timing
        # Duration field: the rest of the exchange after the RTS ends.
        remaining = (
            timing.sifs_s
            + timing.cts_airtime_s()
            + timing.sifs_s
            + data_frame.airtime_s(timing)
            + timing.sifs_s
            + timing.ack_airtime_s()
        )
        rts = Frame(
            kind=FrameKind.RTS,
            source=self.address,
            destination=data_frame.destination,
            nav_duration_s=remaining,
        )
        self.rts_sent += 1
        yield from self._on_air(rts)
        self._awaiting_cts = Event(self.sim)
        cts_event = self._awaiting_cts
        timeout = _Timeout(self.sim, self.timing.cts_timeout_s())
        yield _FirstOf(self.sim, cts_event, timeout)
        if cts_event._state == 2 and cts_event._ok:
            self.cts_received += 1
            return True
        self._awaiting_cts = None
        return False

    def _contention(self, contention_window: int):
        """DIFS + frozen random backoff, per the DCF rules.

        Both physical carrier sense (the medium as heard at this station)
        and virtual carrier sense (the NAV set by overheard RTS/CTS
        duration fields) must be clear.

        Each idle period is one race: a single timer covering the DIFS
        plus the whole residual backoff against one ``wait_busy``.  When
        the medium goes busy first, the whole slots that elapsed are
        subtracted and the countdown freezes until the next idle period.

        The instants match a slot-by-slot countdown exactly: the DIFS
        ends at ``now + difs_s`` and each slot boundary is the previous
        one plus ``slot_s`` (repeated float addition, never
        ``now + n * slot_s``).  A busy edge exactly on the DIFS end
        restarts the DIFS with every slot left; one exactly on a slot
        boundary counts that slot as elapsed.
        """
        timing = self.timing
        backoff_slots = self.rng.randint(0, contention_window)
        sim = self.sim
        bus = sim.trace
        if bus.enabled:
            bus.emit(
                "mac",
                self.address,
                "backoff",
                slots=backoff_slots,
                cw=contention_window,
            )
        medium = self.medium
        address = self.address
        slot_s = timing.slot_s
        difs_s = timing.difs_s
        while True:
            if not medium.is_idle_for(address):
                yield medium.wait_idle(address)
            now = sim._now
            if now < self._nav_until:
                yield _Timeout(sim, self._nav_until - now)
                continue
            difs_end = end = now + difs_s
            for _ in range(backoff_slots):
                end += slot_s
            busy = medium.wait_busy(address)
            yield _FirstOf(sim, sim.timeout_at(end), busy)
            if busy._state != 2:  # not processed: the timer won
                if not busy._state:  # still pending: nobody will wait on it
                    medium.cancel_wait_busy(address, busy)
                return
            # Subtract the slots whose boundary is at or before the edge.
            went_busy = sim._now
            boundary = difs_end
            while backoff_slots:
                boundary += slot_s
                if boundary > went_busy:
                    break
                backoff_slots -= 1

    def _on_air(self, frame: Frame):
        """Put a frame on the medium, driving the radio's tx state.

        The radio then returns to the state it left, unless that was a
        sleep state: a frame sent mid-nap leaves the radio idle, awake
        to hear its ACK.
        """
        # The sender process's form; _response_on_air is its callback twin.
        radio = self.radio
        use_radio = radio is not None and not radio.in_transition
        if use_radio:
            previous = radio.state if radio.can_communicate else "idle"
            yield radio.transition_to("tx")
        delivered = yield self.medium.transmit(frame)
        if use_radio:
            yield radio.transition_to(previous)
        return delivered

    def _response_on_air(self, frame: Frame) -> None:
        """:meth:`_on_air` as callbacks, each run where its process would resume."""
        radio = self.radio
        if radio is None or radio.in_transition:
            self.medium.transmit(frame).callbacks.append(self._response_sent)
            return
        previous = radio.state if radio.can_communicate else "idle"

        def restore(_transmission: Event) -> None:
            chain(radio.transition_to(previous), self._response_sent)

        def transmit(_event: Event) -> None:
            self.medium.transmit(frame).callbacks.append(restore)

        chain(radio.transition_to("tx"), transmit)

    def _response_sent(self, _event: Event) -> None:
        self._pending_acks -= 1

    def _charge_rx(self, frame: Frame) -> None:
        """Charge the rx-vs-idle power delta for a received frame."""
        radio = self.radio
        if radio is None:
            return
        model = radio.model
        if model is not self._rx_model:  # power models are read-only
            states = model.states
            self._rx_model = model
            self._rx_delta_w = (
                max(model.power("rx") - model.power("idle"), 0.0)
                if "rx" in states and "idle" in states
                else None
            )
        delta_w = self._rx_delta_w
        if delta_w is not None:
            radio.add_energy_impulse(delta_w * frame.airtime_s(self.timing))

    def __repr__(self) -> str:
        return f"<DcfStation {self.address!r} queue={self.queue_length}>"
