"""Test-only reference: the N-way first-of condition.

Every race in the library is between two events and goes through
``repro.sim.events.FirstOf``.  Before that each race built an ``AnyOf``
condition over a tuple of sub-events, with a done counter and a
``{event: value}`` result nobody read.  That condition is kept here as
the oracle ``test_first_of.py`` races ``FirstOf`` against, and as the
race of the per-slot backoff reference in ``tests/mac``.
"""

from __future__ import annotations

from repro.sim.events import Condition


class AnyOf(Condition):
    """Fires when any one of the sub-events fires; its value maps each
    sub-event already processed and ok to that event's value."""

    __slots__ = ()
    _NEEDS_ALL = False
