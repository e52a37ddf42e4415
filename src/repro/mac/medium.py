"""The shared wireless medium.

A single-channel broadcast medium with carrier sensing and collisions:

- every registered station hears every transmission (no hidden terminals —
  the paper's infrastructure scenario has all clients in range of the AP);
- two transmissions overlapping in time collide and corrupt each other;
- an optional error model can additionally corrupt collision-free frames
  (plugging in :class:`repro.phy.channel.GilbertElliottChannel` or a
  BER-based model).

Stations interact through three primitives: :meth:`Medium.transmit` (an
event that occupies the channel from the call until the frame's airtime
ends), and the carrier-sense events :meth:`wait_idle` / :meth:`wait_busy`
used by DCF backoff.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol

from repro.mac.frames import BROADCAST, Dot11Timing, Frame
from repro.sim.events import Event
from repro.sim.events import Timeout as _Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class FrameSink(Protocol):
    """Anything that can receive frames from the medium."""

    address: str

    def on_frame(self, frame: Frame) -> None:
        """Called when a frame addressed to (or broadcast past) us lands."""


class _Transmission(_Timeout):
    """One frame on the air: a timer firing when its airtime ends."""

    __slots__ = ("frame", "collided")

    def __init__(self, sim: "Simulator", frame: Frame, airtime: float) -> None:
        _Timeout.__init__(self, sim, airtime)
        self.frame = frame
        self.collided = False


class Medium:
    """Single shared radio channel with collisions and carrier sensing.

    Parameters
    ----------
    sim:
        Owning simulator.
    timing:
        PHY timing used to compute frame airtimes.
    error_model:
        Optional ``f(frame, now) -> bool`` returning whether a
        collision-free frame survives channel errors.
    """

    def __init__(
        self,
        sim: "Simulator",
        timing: Optional[Dot11Timing] = None,
        error_model: Optional[Callable[[Frame, float], bool]] = None,
    ) -> None:
        self.sim = sim
        self.timing = timing or Dot11Timing()
        self.error_model = error_model
        self._stations: Dict[str, FrameSink] = {}
        self._active: List[_Transmission] = []
        self._idle_waiters: List[Event] = []
        self._busy_waiters: List[Event] = []
        self._end_cb = self._end_transmission
        # Statistics.
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_collided = 0
        self.frames_errored = 0
        self.busy_time_s = 0.0

    # -- registration -----------------------------------------------------

    def register(self, station: FrameSink) -> None:
        """Attach a station; its ``address`` must be unique."""
        address = station.address
        if address == BROADCAST:
            raise ValueError(f"{BROADCAST!r} is reserved for broadcast")
        if address in self._stations:
            raise ValueError(f"duplicate station address {address!r}")
        self._stations[address] = station

    def unregister(self, address: str) -> None:
        """Detach a station (frames to it are then dropped silently)."""
        self._stations.pop(address, None)

    # -- carrier sense ------------------------------------------------------

    @property
    def is_idle(self) -> bool:
        """True when nothing is on the air."""
        return not self._active

    def is_idle_for(self, address: Optional[str] = None) -> bool:
        """Carrier sense at ``address``.

        The base medium has no geometry: every station hears everything,
        so this is the global idle state.  :class:`repro.mac.spatial.
        SpatialMedium` overrides it with audibility-aware sensing.
        """
        return self.is_idle

    def wait_idle(self, address: Optional[str] = None) -> Event:
        """Event firing when the medium is (or becomes) idle at ``address``."""
        event = Event(self.sim)
        if self.is_idle_for(address):
            event.succeed()
        else:
            self._idle_waiters.append(event)
        return event

    def wait_busy(self, address: Optional[str] = None) -> Event:
        """Event firing when the *next* transmission audible at
        ``address`` starts."""
        event = Event(self.sim)
        self._busy_waiters.append(event)
        return event

    def cancel_wait_busy(self, address: Optional[str], event: Event) -> None:
        """Withdraw a pending :meth:`wait_busy` event nobody waits on any
        more, so the next transmission does not trigger it."""
        self._busy_waiters.remove(event)

    # -- transmission ----------------------------------------------------------

    def transmit(self, frame: Frame) -> Event:
        """Put ``frame`` on the air; yield the returned event to wait.

        The frame goes on the air at the call: collisions are marked and
        busy waiters fire before this returns.  The returned event fires
        when the frame's airtime elapses.  Its first callback takes the
        frame off the air, fires the idle waiters and delivers it, so its
        value, once a waiter resumes, is ``True`` if the frame was
        delivered un-collided and error-free to at least one receiver.
        """
        airtime = frame.airtime_s(self.timing)
        transmission = _Transmission(self.sim, frame, airtime)
        transmission.callbacks.append(self._end_cb)
        self.frames_sent += 1
        self.busy_time_s += airtime
        # Any overlap is a collision, corrupting everyone involved.
        for other in self._active:
            other.collided = True
            transmission.collided = True
        if transmission.collided:
            bus = self.sim.trace
            if bus.enabled:
                bus.emit(
                    "mac",
                    "medium",
                    "collision",
                    source=frame.source,
                    overlapping=len(self._active) + 1,
                )
        was_idle = not self._active
        self._active.append(transmission)
        if was_idle:
            waiters, self._busy_waiters = self._busy_waiters, []
            for event in waiters:
                event.succeed(frame)
        return transmission

    def _end_transmission(self, transmission: _Transmission) -> None:
        self._active.remove(transmission)
        if not self._active:
            waiters, self._idle_waiters = self._idle_waiters, []
            for event in waiters:
                event.succeed()
        transmission._value = self._complete(transmission)

    def _complete(self, transmission: _Transmission) -> bool:
        frame = transmission.frame
        if transmission.collided:
            self.frames_collided += 1
            return False
        if self.error_model is not None and not self.error_model(frame, self.sim.now):
            self.frames_errored += 1
            return False
        delivered = False
        if frame.destination == BROADCAST:
            for address, station in list(self._stations.items()):
                if address != frame.source:
                    station.on_frame(frame)
                    delivered = True
        else:
            station = self._stations.get(frame.destination)
            if station is not None:
                station.on_frame(frame)
                delivered = True
        if delivered:
            self.frames_delivered += 1
        return delivered

    def utilisation(self, now: Optional[float] = None) -> float:
        """Fraction of elapsed time the medium has been busy."""
        elapsed = (now if now is not None else self.sim.now)
        if elapsed <= 0:
            return 0.0
        return min(self.busy_time_s / elapsed, 1.0)

    def __repr__(self) -> str:
        return (
            f"<Medium stations={len(self._stations)} "
            f"active={len(self._active)} sent={self.frames_sent}>"
        )
