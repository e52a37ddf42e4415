"""EC-MAC: centrally scheduled, collision-free MAC with exact doze times.

The paper (§1): *"EC-MAC extends [802.11 PSM] by broadcasting a centrally
determined schedule of data transmission times to reduce collisions and to
provide exact times for entry into doze state."*

Superframe structure (a faithful simplification of Sivalingam et al.'s
EC-MAC):

1. **Schedule phase** — the coordinator broadcasts a schedule frame
   listing, for every station with pending traffic, the exact offset and
   duration of its data window in this superframe.
2. **Request phase** — every registered station owns a fixed mini-slot;
   a station with uplink data sends a tiny reservation request in its
   mini-slot (collision-free by construction).  Stations with nothing to
   send sleep through the phase.
3. **Data phase** — downlink and granted uplink transfers happen
   back-to-back in their scheduled windows, no contention, ACK after SIFS.

Stations doze at all other times — including *between* their window and
the end of the superframe, which is the "exact doze time" advantage over
PSM's poll-until-drained loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.mac.frames import BROADCAST, Dot11Timing, Frame, FrameKind
from repro.mac.medium import Medium
from repro.sim.events import Event, FirstOf
from repro.sim.events import Timeout as _Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.radio import Radio
    from repro.sim.core import Simulator


@dataclass(frozen=True)
class ScheduleEntry:
    """One data window in an EC-MAC superframe."""

    station: str
    #: Offset of the window start from the superframe start, in seconds.
    offset_s: float
    duration_s: float
    #: "down" (coordinator to station) or "up".
    direction: str


@dataclass
class EcMacConfig:
    """EC-MAC timing parameters."""

    superframe_s: float = 0.050
    #: Airtime reserved for the schedule broadcast + guard.
    schedule_phase_s: float = 0.002
    #: One reservation mini-slot per registered station.
    request_slot_s: float = 0.0005
    #: Guard time between scheduled windows.
    guard_s: float = 0.0002
    #: PHY rate for data transfers.
    rate_bps: float = 11_000_000.0
    timing: Dot11Timing = Dot11Timing()


class EcMacCoordinator:
    """The central scheduler (base-station side of EC-MAC).

    Parameters
    ----------
    on_receive:
        Callback for uplink frames arriving at the coordinator.
    """

    def __init__(
        self,
        sim: "Simulator",
        medium: Medium,
        address: str = "ecmac-ap",
        config: Optional[EcMacConfig] = None,
        radio: Optional["Radio"] = None,
        on_receive: Optional[Callable[[Frame], None]] = None,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.address = address
        self.config = config or EcMacConfig()
        self.radio = radio
        self.on_receive = on_receive
        self._downlink: Dict[str, Deque[Tuple[Frame, Event]]] = {}
        self._uplink_requests: Dict[str, int] = {}
        self._stations: List[str] = []
        self._acks_received: set[str] = set()
        self.superframes = 0
        self.frames_scheduled = 0
        self.retransmissions = 0
        medium.register(self)
        sim.process(self._superframe_loop(), name=f"ecmac:{address}")

    # -- registration ------------------------------------------------------

    def register_station(self, station_address: str) -> int:
        """Register a station; returns its request mini-slot index."""
        if station_address in self._stations:
            raise ValueError(f"station {station_address!r} already registered")
        self._stations.append(station_address)
        return len(self._stations) - 1

    def request_slot_index(self, station_address: str) -> int:
        return self._stations.index(station_address)

    # -- traffic ------------------------------------------------------------

    def send_data(
        self, destination: str, payload_bytes: int, payload: Any = None
    ) -> Event:
        """Queue one downlink frame; event fires True once transmitted."""
        frame = Frame(
            kind=FrameKind.DATA,
            source=self.address,
            destination=destination,
            payload_bytes=payload_bytes,
            rate_bps=self.config.rate_bps,
            payload=payload,
        )
        done = Event(self.sim)
        self._downlink.setdefault(destination, deque()).append((frame, done))
        return done

    def buffered_count(self, station_address: str) -> int:
        return len(self._downlink.get(station_address, ()))

    # -- medium sink ------------------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        if frame.destination != self.address:
            return
        if frame.kind is FrameKind.ACK:
            self._acks_received.add(frame.source)
        elif frame.kind is FrameKind.CONTROL and frame.payload == "uplink-request":
            self._uplink_requests[frame.source] = max(
                self._uplink_requests.get(frame.source, 0), int(frame.payload_bytes)
            )
        elif frame.kind is FrameKind.DATA:
            if self.on_receive is not None:
                self.on_receive(frame)

    # -- superframe engine ----------------------------------------------------------

    def _build_schedule(self) -> List[ScheduleEntry]:
        """Allocate data windows for all pending traffic, FIFO per station."""
        config = self.config
        offset = config.schedule_phase_s + len(self._stations) * config.request_slot_s
        entries: List[ScheduleEntry] = []
        budget_end = config.superframe_s - config.guard_s
        for station in self._stations:
            buffered = self._downlink.get(station)
            if buffered:
                per_frame_wait = (
                    config.timing.sifs_s
                    + config.timing.ack_airtime_s()
                    + config.timing.slot_s
                )
                duration = sum(
                    frame.airtime_s(config.timing) + per_frame_wait
                    for frame, _done in buffered
                )
                duration += config.guard_s
                if offset + duration > budget_end:
                    # Defer what does not fit to the next superframe.
                    duration = budget_end - offset
                    if duration <= config.guard_s:
                        break
                entries.append(ScheduleEntry(station, offset, duration, "down"))
                offset += duration
            requested = self._uplink_requests.pop(station, 0)
            if requested > 0:
                airtime = (
                    config.timing.data_airtime_s(requested, config.rate_bps)
                    + config.timing.sifs_s
                    + config.timing.ack_airtime_s()
                    + config.guard_s
                )
                if offset + airtime > budget_end:
                    self._uplink_requests[station] = requested  # retry next time
                    continue
                entries.append(ScheduleEntry(station, offset, airtime, "up"))
                offset += airtime
        return entries

    def _superframe_loop(self):
        config = self.config
        number = 0
        while True:
            number += 1
            start = number * config.superframe_s
            if start > self.sim.now:
                yield self.sim.timeout(start - self.sim.now)
            self.superframes += 1
            entries = self._build_schedule()
            self.frames_scheduled += len(entries)
            schedule_frame = Frame(
                kind=FrameKind.SCHEDULE,
                source=self.address,
                destination=BROADCAST,
                payload_bytes=30 + 8 * len(entries),
                rate_bps=config.timing.basic_rate_bps,
                payload=(start, tuple(entries)),
            )
            yield self.medium.transmit(schedule_frame)
            # Serve downlink windows at their exact offsets.
            for entry in entries:
                if entry.direction != "down":
                    continue
                window_start = start + entry.offset_s
                if window_start > self.sim.now:
                    yield self.sim.timeout(window_start - self.sim.now)
                yield from self._serve_window(entry, start)

    def _serve_window(self, entry: ScheduleEntry, superframe_start: float):
        config = self.config
        timing = config.timing
        window_end = superframe_start + entry.offset_s + entry.duration_s
        buffered = self._downlink.get(entry.station)
        # SIFS + ACK airtime + one guard slot so the ACK has fully left the
        # air before anything else is transmitted.
        ack_wait = timing.sifs_s + timing.ack_airtime_s() + timing.slot_s
        while buffered:
            frame, done = buffered[0]
            cost = frame.airtime_s(timing) + ack_wait
            if self.sim.now + cost > window_end:
                break
            frame.more_data = len(buffered) > 1
            self._acks_received.discard(entry.station)
            if self.radio is not None and not self.radio.in_transition:
                yield self.radio.transition_to("tx")
            yield self.medium.transmit(frame)
            if self.radio is not None and not self.radio.in_transition:
                yield self.radio.transition_to("idle")
            yield self.sim.timeout(ack_wait)
            if entry.station in self._acks_received:
                buffered.popleft()
                done.succeed(True)
            else:
                # The station missed this window (dozing or collision);
                # keep the frame for the next superframe's schedule.
                self.retransmissions += 1
                return

    def __repr__(self) -> str:
        return f"<EcMacCoordinator {self.address!r} stations={len(self._stations)}>"


class EcMacStation:
    """A dozing station following the coordinator's broadcast schedule.

    Parameters
    ----------
    radio:
        Radio with ``idle``/``doze`` (and optionally ``tx``) states.
    on_receive:
        Callback for received downlink data frames.
    """

    def __init__(
        self,
        sim: "Simulator",
        medium: Medium,
        address: str,
        coordinator: EcMacCoordinator,
        radio: "Radio",
        on_receive: Optional[Callable[[Frame], None]] = None,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.address = address
        self.coordinator = coordinator
        self.radio = radio
        self.on_receive = on_receive
        self.config = coordinator.config
        self._slot_index = coordinator.register_station(address)
        self._uplink: Deque[Tuple[Frame, Event]] = deque()
        self._schedule_event: Optional[Event] = None
        self._last_seq_from: Dict[str, int] = {}
        self.frames_received = 0
        self.bytes_received = 0
        self.schedules_heard = 0
        medium.register(self)
        sim.process(self._station_loop(), name=f"ecmac-sta:{address}")

    # -- uplink API -----------------------------------------------------------

    def send(self, payload_bytes: int, payload: Any = None) -> Event:
        """Queue one uplink frame to the coordinator."""
        frame = Frame(
            kind=FrameKind.DATA,
            source=self.address,
            destination=self.coordinator.address,
            payload_bytes=payload_bytes,
            rate_bps=self.config.rate_bps,
            payload=payload,
        )
        done = Event(self.sim)
        self._uplink.append((frame, done))
        return done

    # -- medium sink ---------------------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        if self.radio is not None and not self.radio.can_communicate:
            return
        if frame.kind is FrameKind.SCHEDULE:
            self.schedules_heard += 1
            if self._schedule_event is not None:
                pending, self._schedule_event = self._schedule_event, None
                pending.succeed(frame.payload)
            return
        if frame.kind is FrameKind.DATA and frame.destination == self.address:
            self._send_ack(frame)
            if self._last_seq_from.get(frame.source) == frame.seq:
                return  # retransmission of a frame whose ACK was lost
            self._last_seq_from[frame.source] = frame.seq
            self.frames_received += 1
            self.bytes_received += frame.payload_bytes
            if self.on_receive is not None and frame.payload_bytes > 0:
                self.on_receive(frame)

    def _send_ack(self, data_frame: Frame) -> None:
        ack = Frame(
            kind=FrameKind.ACK, source=self.address, destination=data_frame.source
        )
        _Timeout(self.sim, self.config.timing.sifs_s).callbacks.append(
            lambda _timer: self.medium.transmit(ack)
        )

    # -- the doze/wake cycle ----------------------------------------------------------

    def _station_loop(self):
        config = self.config
        number = 0
        wake_guard = 0.003
        # Gaps shorter than a doze round-trip are not worth sleeping for.
        min_doze_gap_s = 0.004
        while True:
            number = max(number + 1, int(self.sim.now / config.superframe_s) + 1)
            start = number * config.superframe_s
            wake_at = start - wake_guard
            gap = wake_at - self.sim.now
            if gap > min_doze_gap_s:
                if self.radio.state != "doze":
                    yield self.radio.transition_to("doze")
                yield self.sim.timeout(wake_at - self.sim.now)
            if self.radio.state != "idle":
                yield self.radio.transition_to("idle")
            schedule = yield from self._await_schedule()
            if schedule is None:
                continue
            superframe_start, entries = schedule
            yield from self._request_phase(superframe_start)
            my_windows = [e for e in entries if e.station == self.address]
            for entry in my_windows:
                yield from self._attend_window(superframe_start, entry)
            # Exact doze: nothing else this superframe concerns us; the
            # next loop iteration decides whether the gap is worth it.

    def _await_schedule(self):
        self._schedule_event = Event(self.sim)
        pending = self._schedule_event
        timeout = self.sim.timeout(self.config.schedule_phase_s * 4)
        yield FirstOf(self.sim, pending, timeout)
        if pending.processed:
            return pending.value
        self._schedule_event = None
        return None

    def _request_phase(self, superframe_start: float):
        """Send an uplink reservation in our mini-slot, if we need one."""
        if not self._uplink:
            return
        config = self.config
        slot_at = (
            superframe_start
            + config.schedule_phase_s
            + self._slot_index * config.request_slot_s
        )
        if slot_at > self.sim.now:
            yield self.sim.timeout(slot_at - self.sim.now)
        pending_bytes = self._uplink[0][0].payload_bytes
        request = Frame(
            kind=FrameKind.CONTROL,
            source=self.address,
            destination=self.coordinator.address,
            payload_bytes=pending_bytes,
            rate_bps=config.timing.basic_rate_bps,
            payload="uplink-request",
        )
        # The request must fit the mini-slot; it is a header-only blip, so
        # model its airtime as the mini-slot itself.
        yield self.sim.timeout(config.request_slot_s)
        # Deliver out of band of the airtime model (collision-free slot).
        self.coordinator.on_frame(request)

    def _attend_window(self, superframe_start: float, entry: ScheduleEntry):
        window_start = superframe_start + entry.offset_s
        window_end = window_start + entry.duration_s
        if window_start > self.sim.now:
            # Doze precisely until our window if the gap is worthwhile.
            gap = window_start - self.sim.now
            doze_roundtrip = 0.004
            if gap > 2 * doze_roundtrip:
                yield self.radio.transition_to("doze")
                yield self.sim.timeout(gap - doze_roundtrip)
                yield self.radio.transition_to("idle")
            else:
                yield self.sim.timeout(gap)
        if entry.direction == "up":
            yield from self._transmit_uplink(window_end)
        else:
            # Stay awake for the window; reception is event-driven.
            remaining = window_end - self.sim.now
            if remaining > 0:
                yield self.sim.timeout(remaining)

    def _transmit_uplink(self, window_end: float):
        timing = self.config.timing
        ack_wait = timing.sifs_s + timing.ack_airtime_s() + timing.slot_s
        while self._uplink:
            frame, done = self._uplink[0]
            cost = frame.airtime_s(timing) + ack_wait
            if self.sim.now + cost > window_end:
                return
            self._uplink.popleft()
            if not self.radio.in_transition and "tx" in self.radio.model.states:
                yield self.radio.transition_to("tx")
            delivered = yield self.medium.transmit(frame)
            if not self.radio.in_transition and self.radio.state == "tx":
                yield self.radio.transition_to("idle")
            yield self.sim.timeout(ack_wait)
            done.succeed(delivered)
