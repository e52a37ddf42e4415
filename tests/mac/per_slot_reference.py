"""Test-only reference: the slot-by-slot DCF backoff countdown.

``DcfStation._contention`` counts the backoff down with one timer per
idle period.  Before that it raced a fresh slot ``Timeout`` against a
fresh ``wait_busy`` event for every idle slot.  That loop is kept here,
unchanged, as the oracle the property tests in ``test_dcf.py`` compare
the single-timer version against.

The one addition is bookkeeping: ``counted_through`` records every
DIFS or slot end the loop passed, with slots still left, while the busy
edge it raced was already triggered but not yet processed.  The fresh
``wait_busy`` armed after such an end joins a waiter list the medium
has already flushed, so the loop keeps counting through the
transmission.  The single-timer version freezes at that edge instead,
so outcomes can only be compared where the list is empty.
"""

from __future__ import annotations

from repro.mac import DcfStation
from repro.sim.events import AnyOf as _AnyOf
from repro.sim.events import Timeout as _Timeout


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
        if busy._state == 2:  # processed: went busy during DIFS
            continue
        if busy._state == 1 and backoff_slots:
            self.counted_through.append(sim._now)
        # Count the backoff down one slot at a time, freezing on busy.
        interrupted = False
        while backoff_slots > 0:
            busy = wait_busy(address)
            slot = make_timeout(sim, slot_s)
            yield any_of(sim, (slot, busy))
            if busy._state == 2:
                interrupted = True
                break
            backoff_slots -= 1
            if busy._state == 1 and backoff_slots:
                self.counted_through.append(sim._now)
        if not interrupted:
            return


class PerSlotDcfStation(DcfStation):
    """A :class:`DcfStation` whose backoff is the per-slot reference."""

    _contention = per_slot_contention

    def __init__(self, *args, **kwargs) -> None:
        #: Instants at which the reference counted past a triggered busy edge.
        self.counted_through = []
        super().__init__(*args, **kwargs)
