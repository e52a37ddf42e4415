"""A medium with geometry: limited audibility and hidden terminals.

The base :class:`~repro.mac.medium.Medium` lets every station hear every
other — fine for the paper's single-cell infrastructure scenario.  This
subclass adds an *audibility* relation: station ``b`` only senses and
receives transmissions whose source ``a`` satisfies ``audibility(a, b)``.

That creates the classic **hidden terminal**: A and C both hear the
access point B but not each other, so their carrier sense never defers
to one another and their frames collide *at B* — invisible to either
sender.  The RTS/CTS + NAV machinery in :mod:`repro.mac.dcf` is the
textbook fix: B's CTS (audible to both) reserves the air.

Collision semantics are per receiver: a frame is corrupted for receiver
``r`` iff some other transmission that overlapped it in time came from a
source audible to ``r``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.mac.frames import BROADCAST, Dot11Timing, Frame
from repro.mac.medium import Medium
from repro.sim.events import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: ``audibility(source, listener) -> bool``.
Audibility = Callable[[str, str], bool]


def audibility_from_groups(*groups: Set[str]) -> Audibility:
    """Stations hear each other iff they share at least one group.

    ``audibility_from_groups({"A", "B"}, {"B", "C"})`` builds the classic
    hidden-terminal triple: A-B and B-C hear each other, A-C do not.
    """
    group_sets = [set(g) for g in groups]

    def audible(source: str, listener: str) -> bool:
        if source == listener:
            return True
        return any(source in g and listener in g for g in group_sets)

    return audible


class _SpatialTransmission(Timeout):
    """One frame on the air: a timer firing when its airtime ends."""

    __slots__ = ("frame", "overlapping_sources")

    def __init__(self, sim: "Simulator", frame: Frame, airtime: float) -> None:
        Timeout.__init__(self, sim, airtime)
        self.frame = frame
        #: Sources of every transmission that overlapped this one.
        self.overlapping_sources: Set[str] = set()


class SpatialMedium(Medium):
    """Single channel with an audibility relation between stations.

    Parameters
    ----------
    audibility:
        ``f(source, listener) -> bool``; default: everyone hears everyone
        (behaves like the base medium).
    """

    def __init__(
        self,
        sim: "Simulator",
        timing: Optional[Dot11Timing] = None,
        error_model=None,
        audibility: Optional[Audibility] = None,
    ) -> None:
        super().__init__(sim, timing, error_model)
        self.audibility = audibility or (lambda source, listener: True)
        self._spatial_active: List[_SpatialTransmission] = []
        self._idle_waiters_by_addr: Dict[Optional[str], List[Event]] = {}
        self._busy_waiters_by_addr: Dict[Optional[str], List[Event]] = {}

    # -- carrier sense ------------------------------------------------------

    def _audible(self, source: str, listener: Optional[str]) -> bool:
        if listener is None:
            return True  # global observers hear everything
        return self.audibility(source, listener)

    def is_idle_for(self, address: Optional[str] = None) -> bool:
        return not any(
            self._audible(t.frame.source, address) for t in self._spatial_active
        )

    @property
    def is_idle(self) -> bool:
        return not self._spatial_active

    def wait_idle(self, address: Optional[str] = None) -> Event:
        event = Event(self.sim)
        if self.is_idle_for(address):
            event.succeed()
        else:
            self._idle_waiters_by_addr.setdefault(address, []).append(event)
        return event

    def wait_busy(self, address: Optional[str] = None) -> Event:
        event = Event(self.sim)
        self._busy_waiters_by_addr.setdefault(address, []).append(event)
        return event

    def cancel_wait_busy(self, address: Optional[str], event: Event) -> None:
        self._busy_waiters_by_addr[address].remove(event)

    def _fire_busy(self, frame: Frame) -> None:
        # Most lists are empty: a backoff that beat its busy event took it back.
        for address, waiters in self._busy_waiters_by_addr.items():
            if waiters and self._audible(frame.source, address):
                self._busy_waiters_by_addr[address] = []
                for event in waiters:
                    event.succeed(frame)

    def _fire_idle(self) -> None:
        for address, waiters in list(self._idle_waiters_by_addr.items()):
            if not waiters or not self.is_idle_for(address):
                continue
            self._idle_waiters_by_addr[address] = []
            for event in waiters:
                event.succeed()

    # -- transmission ----------------------------------------------------------

    def transmit(self, frame: Frame) -> Event:
        airtime = frame.airtime_s(self.timing)
        transmission = _SpatialTransmission(self.sim, frame, airtime)
        transmission.callbacks.append(self._end_cb)
        self.frames_sent += 1
        self.busy_time_s += airtime
        for other in self._spatial_active:
            other.overlapping_sources.add(frame.source)
            transmission.overlapping_sources.add(other.frame.source)
        self._spatial_active.append(transmission)
        self._fire_busy(frame)
        return transmission

    def _end_transmission(self, transmission: _SpatialTransmission) -> None:
        self._spatial_active.remove(transmission)
        self._fire_idle()
        transmission._value = self._complete_spatial(transmission)

    def _corrupted_for(self, transmission: _SpatialTransmission, listener: str) -> bool:
        return any(
            self._audible(source, listener)
            for source in transmission.overlapping_sources
        )

    def _complete_spatial(self, transmission: _SpatialTransmission) -> bool:
        frame = transmission.frame
        if self.error_model is not None and not self.error_model(frame, self.sim.now):
            self.frames_errored += 1
            return False
        # Every audible station *overhears* the frame (that is what arms
        # the NAV from RTS/CTS duration fields); stations filter by
        # destination themselves.  "Delivered" means the actual addressee
        # (anyone, for broadcast) got an uncorrupted copy.
        delivered = False
        corrupted_at_destination = False
        for address, station in list(self._stations.items()):
            if address == frame.source:
                continue
            if not self._audible(frame.source, address):
                continue
            is_destination = frame.destination in (address, BROADCAST)
            if self._corrupted_for(transmission, address):
                if is_destination:
                    corrupted_at_destination = True
                continue
            station.on_frame(frame)
            if is_destination:
                delivered = True
        if delivered:
            self.frames_delivered += 1
        elif corrupted_at_destination:
            self.frames_collided += 1
        return delivered
