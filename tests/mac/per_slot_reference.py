"""Test-only reference: the slot-by-slot DCF backoff countdown.

``DcfStation._contention`` counts the backoff down with one timer per
idle period.  Before that it raced a fresh slot ``Timeout`` against a
fresh ``wait_busy`` event for every idle slot.  That loop is kept here
as the oracle the property tests in ``test_dcf.py`` compare the
single-timer version against.

The loop states its tie rules itself instead of inheriting them from
the order in which same-instant events happen to be dispatched.  When
a race resumes, a busy edge may be *processed* (the medium went busy
before the timer ended, or at the same instant) or only *triggered*
(a transmission started at the timer's own instant, its busy event not
yet dispatched):

- after the DIFS race, the DIFS restarts when the busy edge is
  processed, or when it is triggered and slots are left;
- after a slot race, the slot counts whenever its timer was processed;
  the countdown then freezes when the busy edge is processed, or when
  it is triggered and slots are left.

A triggered edge with no slot left loses to the station, which
transmits into the collision, as a real station would.
"""

from __future__ import annotations

from repro.mac import DcfStation
from repro.sim.events import Timeout as _Timeout
from tests.sim.any_of_reference import AnyOf as _AnyOf


def per_slot_contention(self, contention_window: int):
    """DIFS + frozen random backoff, one AnyOf race per slot."""
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
    wait_busy = medium.wait_busy
    is_idle_for = medium.is_idle_for
    any_of = _AnyOf
    make_timeout = _Timeout
    slot_s = timing.slot_s
    difs_s = timing.difs_s
    while True:
        if not is_idle_for(address):
            yield medium.wait_idle(address)
        now = sim._now
        if now < self._nav_until:
            yield make_timeout(sim, self._nav_until - now)
            continue
        # The channel must stay idle for a full DIFS.
        busy = wait_busy(address)
        difs = make_timeout(sim, difs_s)
        yield any_of(sim, (difs, busy))
        if busy._state == 2 or (busy._state == 1 and backoff_slots):
            continue
        # Count the backoff down one slot at a time, freezing on busy.
        interrupted = False
        while backoff_slots > 0:
            busy = wait_busy(address)
            slot = make_timeout(sim, slot_s)
            yield any_of(sim, (slot, busy))
            if slot._state == 2:
                backoff_slots -= 1
            if busy._state == 2 or (busy._state == 1 and backoff_slots):
                interrupted = True
                break
        if not interrupted:
            return


class PerSlotDcfStation(DcfStation):
    """A :class:`DcfStation` whose backoff is the per-slot reference."""

    _contention = per_slot_contention
