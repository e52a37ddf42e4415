"""802.11 power-save mode: TIM beacons, PS-Polls and dozing stations.

The paper (§1): *"802.11 power saving standard has a device entering doze
mode whenever there is no traffic for it in the traffic indication map
sent by the access point."*

Protocol as implemented:

- The :class:`AccessPoint` broadcasts a beacon every beacon interval whose
  payload is the traffic indication map (TIM) — the set of power-saving
  stations with downlink frames buffered at the AP.
- A :class:`PsmStation` keeps its radio in ``doze`` and wakes just before
  each expected beacon.  If the TIM names it, it sends a PS-Poll; the AP
  answers each poll with one buffered frame, setting the *more-data* bit
  while further frames remain.  When the buffer drains (or the TIM misses
  it) the station returns to ``doze``.
- Frames to stations not in power-save mode are transmitted immediately.

Uplink traffic from a dozing station is deferred to its next wake window —
a documented simplification (real stations may wake spontaneously to
transmit, which only shortens doze time further).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Optional, Tuple

from repro.mac.dcf import DcfConfig, DcfStation
from repro.mac.frames import (
    BEACON_BASE_BYTES,
    BROADCAST,
    PSM_POLL_DATA_TIMEOUT_S,
    PSM_WAKE_GUARD_S,
    Frame,
    FrameKind,
)
from repro.mac.medium import Medium
from repro.sim.events import Event
from repro.sim.events import FirstOf as _FirstOf
from repro.sim.events import Timeout as _Timeout
from repro.sim.streams import Random

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.radio import Radio
    from repro.sim.core import Simulator


@dataclass
class PsmConfig:
    """Power-save behaviour knobs for a station."""

    #: Wake every n-th beacon (1 = every beacon).
    listen_interval: int = 1
    #: How much before the expected beacon to start waking the radio.
    wake_guard_s: float = PSM_WAKE_GUARD_S
    #: Give up waiting for a beacon after this long and doze again.
    beacon_timeout_s: float = 0.050
    #: Give up waiting for polled data after this long and re-poll.
    poll_data_timeout_s: float = PSM_POLL_DATA_TIMEOUT_S
    #: Maximum consecutive re-polls before dozing until the next beacon.
    max_poll_retries: int = 3


class AccessPoint(DcfStation):
    """An 802.11 AP with PSM downlink buffering and TIM beacons.

    Use :meth:`send_data` for all AP-originated traffic: it transparently
    buffers frames for dozing stations and transmits immediately to active
    ones.
    """

    def __init__(
        self,
        sim: "Simulator",
        medium: Medium,
        address: str = "ap",
        rng: Optional[Random] = None,
        config: Optional[DcfConfig] = None,
        radio: Optional["Radio"] = None,
        on_receive: Optional[Callable[[Frame], None]] = None,
        beacons_enabled: bool = True,
    ) -> None:
        super().__init__(sim, medium, address, rng, config, radio, on_receive)
        self._ps_stations: set[str] = set()
        self._buffers: Dict[str, Deque[Tuple[Frame, Optional[Event]]]] = {}
        self.beacons_sent = 0
        self.beacons_suppressed = 0
        self.ps_polls_served = 0
        #: While True the beacon loop skips TBTTs (AP outage injection);
        #: dozing stations ride their beacon_timeout_s fallback.
        self._beacons_suppressed = False
        if beacons_enabled:
            sim.process(self._beacon_loop(), name=f"beacons:{address}")

    # -- PSM bookkeeping ---------------------------------------------------

    def set_ps_mode(self, station_address: str) -> None:
        """Put a station in power-save mode: from now on its downlink
        frames wait in a buffer until it polls for them."""
        self._ps_stations.add(station_address)

    def buffered_count(self, station_address: str) -> int:
        """Number of frames currently buffered for ``station_address``."""
        return len(self._buffers.get(station_address, ()))

    # -- downlink ---------------------------------------------------------------

    def send_data(
        self,
        destination: str,
        payload_bytes: int,
        payload: Any = None,
        *,
        notify: bool = True,
    ) -> Optional[Event]:
        """Send (or buffer, for dozing stations) one downlink frame.

        The returned event fires with True/False once the frame is finally
        delivered or dropped.  With ``notify=False`` no such event exists
        (nor, for a buffered frame, the relay that would trigger it) and
        the call returns None.
        """
        if destination in self._ps_stations:
            frame = Frame(
                kind=FrameKind.DATA,
                source=self.address,
                destination=destination,
                payload_bytes=payload_bytes,
                rate_bps=self.config.rate_bps,
                payload=payload,
            )
            done = Event(self.sim) if notify else None
            self._buffers.setdefault(destination, deque()).append((frame, done))
            return done
        return self.send(destination, payload_bytes, payload, notify=notify)

    # -- beaconing ----------------------------------------------------------------

    def current_tim(self) -> frozenset[str]:
        """Stations with at least one buffered downlink frame."""
        return frozenset(
            address for address, buffer in self._buffers.items() if buffer
        )

    def set_beacon_suppression(self, suppressed: bool) -> None:
        """Stop (or resume) beacon transmission — an AP-side outage.

        Suppressed TBTTs still advance the schedule, so beacons resume
        on the original timing grid once the outage ends.
        """
        self._beacons_suppressed = bool(suppressed)
        bus = self.sim.trace
        if bus.enabled:
            bus.emit(
                "mac",
                self.address,
                "beacon-suppression",
                suppressed=self._beacons_suppressed,
            )

    def _beacon_loop(self):
        interval = self.timing.beacon_interval_s
        beacon_number = 0
        while True:
            # Beacons go out at fixed target times (TBTT); contention may
            # delay the transmission itself, as in real networks.
            beacon_number += 1
            target = beacon_number * interval
            delay = target - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            if self._beacons_suppressed:
                self.beacons_suppressed += 1
                continue
            tim = self.current_tim()
            beacon = Frame(
                kind=FrameKind.BEACON,
                source=self.address,
                destination=BROADCAST,
                payload_bytes=BEACON_BASE_BYTES + len(tim),
                rate_bps=self.timing.basic_rate_bps,
                payload=tim,
            )
            self.beacons_sent += 1
            bus = self.sim.trace
            if bus.enabled:
                bus.emit(
                    "mac",
                    self.address,
                    "beacon",
                    number=beacon_number,
                    tim_size=len(tim),
                )
            yield self.enqueue_frame(beacon)

    # -- PS-Poll service ---------------------------------------------------------

    def _handle_control(self, frame: Frame) -> None:
        if frame.kind is FrameKind.PS_POLL and frame.destination == self.address:
            self.ps_polls_served += 1
            bus = self.sim.trace
            if bus.enabled:
                bus.emit(
                    "mac",
                    self.address,
                    "ps-poll-serve",
                    station=frame.source,
                    buffered=self.buffered_count(frame.source),
                )
            self._serve_poll(frame.source)

    def _serve_poll(self, station_address: str) -> None:
        buffer = self._buffers.get(station_address)
        if not buffer:
            # Spurious poll: answer with an empty frame, more-data clear,
            # so the station can doze with confidence.
            empty = Frame(
                kind=FrameKind.DATA,
                source=self.address,
                destination=station_address,
                payload_bytes=0,
                rate_bps=self.config.rate_bps,
            )
            self.enqueue_frame(empty, notify=False)
            return
        frame, done = buffer.popleft()
        frame.more_data = bool(buffer)
        self._transmit_buffered(frame, done)

    def _transmit_buffered(self, frame: Frame, done: Optional[Event]) -> None:
        if done is None:
            self.enqueue_frame(frame, notify=False)
            return
        sent = self.enqueue_frame(frame)

        def forward(event: Event) -> None:
            if not done.triggered:
                done.succeed(event.value)

        sent.callbacks.append(forward)


class PsmStation(DcfStation):
    """A station running the 802.11 power-save protocol.

    Requires a radio with ``idle`` and ``doze`` states (the WLAN CF card
    profile provides them).  Downlink payloads reach ``on_receive`` exactly
    as for a plain :class:`DcfStation`.

    Parameters
    ----------
    ap_address:
        The access point to poll.
    psm:
        Power-save knobs; ``None`` uses defaults.
    """

    def __init__(
        self,
        sim: "Simulator",
        medium: Medium,
        address: str,
        ap: AccessPoint,
        radio: "Radio",
        rng: Optional[Random] = None,
        config: Optional[DcfConfig] = None,
        psm: Optional[PsmConfig] = None,
        on_receive: Optional[Callable[[Frame], None]] = None,
    ) -> None:
        super().__init__(sim, medium, address, rng, config, radio, on_receive)
        if radio is None:
            raise ValueError("PsmStation requires a radio")
        self.ap = ap
        self.psm = psm or PsmConfig()
        if self.psm.listen_interval < 1:
            raise ValueError("listen interval must be >= 1")
        self._beacon_event: Optional[Event] = None
        self._data_event: Optional[Event] = None
        self.beacons_heard = 0
        self.polls_sent = 0
        self.doze_cycles = 0
        ap.set_ps_mode(address)
        sim.process(self._cycles(), name=f"psm:{address}")

    # -- frame hooks ---------------------------------------------------------

    def _handle_control(self, frame: Frame) -> None:
        if frame.kind is FrameKind.BEACON:
            self.beacons_heard += 1
            if self._beacon_event is not None:
                pending, self._beacon_event = self._beacon_event, None
                pending.succeed(frame.payload)

    def _deliver(self, frame: Frame) -> None:
        if self._data_event is not None:
            pending, self._data_event = self._data_event, None
            pending.succeed(frame)
        if frame.payload_bytes > 0:
            super()._deliver(frame)

    # -- the sleep/wake cycle ----------------------------------------------------

    def _cycles(self):
        """Doze between listened beacons; PS-Poll the AP on a TIM hit."""
        timing = self.timing
        psm = self.psm
        interval = timing.beacon_interval_s * psm.listen_interval
        wake_number = 0
        yield self.radio.transition_to("doze")
        while True:
            self.doze_cycles += 1
            # Skip past any beacon times that already elapsed (e.g. after a
            # poll session longer than one beacon interval).
            wake_number = max(wake_number + 1, int(self.sim.now / interval) + 1)
            # Sleep until just before the next target beacon time.
            wake_at = wake_number * interval - psm.wake_guard_s
            if wake_at > self.sim._now:
                yield _Timeout(self.sim, wake_at - self.sim._now)
            yield self.radio.transition_to("idle")
            tim = yield from self._await_beacon()
            if tim is not None and self.address in tim:
                bus = self.sim.trace
                if bus.enabled:
                    bus.emit(
                        "mac",
                        self.address,
                        "tim-wake",
                        cycle=self.doze_cycles,
                        tim_size=len(tim),
                    )
                yield from self._drain_ap_buffer()
            # Uplink frames queued while dozing go out in this window, and
            # in-flight ACKs/retries must finish before the radio sleeps.
            while not self.mac_quiescent:
                yield _Timeout(self.sim, timing.slot_s)
            yield self.radio.transition_to("doze")

    def _await_beacon(self):
        """Wait for the next beacon; returns its TIM or None on timeout."""
        self._beacon_event = Event(self.sim)
        beacon = self._beacon_event
        timeout = _Timeout(self.sim, self.psm.beacon_timeout_s)
        yield _FirstOf(self.sim, beacon, timeout)
        if beacon.processed:
            return beacon.value
        self._beacon_event = None
        return None

    def _drain_ap_buffer(self):
        """PS-Poll until the AP reports no more buffered data."""
        retries = 0
        while True:
            poll = Frame(
                kind=FrameKind.PS_POLL,
                source=self.address,
                destination=self.ap.address,
            )
            self.polls_sent += 1
            bus = self.sim.trace
            if bus.enabled:
                bus.emit(
                    "mac", self.address, "ps-poll", retries=retries
                )
            yield self.enqueue_frame(poll)
            self._data_event = Event(self.sim)
            data = self._data_event
            timeout = _Timeout(self.sim, self.psm.poll_data_timeout_s)
            yield _FirstOf(self.sim, data, timeout)
            if not data.processed:
                self._data_event = None
                retries += 1
                if retries > self.psm.max_poll_retries:
                    return
                continue
            retries = 0
            frame: Frame = data.value
            if not frame.more_data:
                return
