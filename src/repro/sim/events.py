"""Core event types for the simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.  It
moves through three states: *pending* (created, not yet triggered),
*triggered* (scheduled to fire, value set) and *processed* (callbacks have
run).  Events may succeed with a value or fail with an exception.

:class:`Timeout` is an event that triggers after a fixed delay.
:class:`FirstOf` races two events; :class:`AllOf` joins several.

Every trigger queues its event through ``Simulator._push``, the kernel's
one calendar insert.  Delays are checked before any state changes: a
negative or non-finite delay raises and leaves both the event and the
simulator as they were.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.core import Simulator

_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2

_INF = float("inf")


class Event:
    """A one-shot occurrence that can be waited on by processes.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.core.Simulator`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callbacks invoked (with this event) once the event is processed.
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state: int = _PENDING

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception once triggered)."""
        if self._state == _PENDING:
            raise AttributeError("value is not available on a pending event")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._state != _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        sim = self.sim
        if delay:
            sim._schedule(self, delay)
        else:
            sim._push(sim._now, self)
        self._state = _TRIGGERED
        self._ok = True
        self._value = value
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exception`` after ``delay``."""
        if self._state != _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.sim._schedule(self, delay)
        self._state = _TRIGGERED
        self._ok = False
        self._value = exception
        return self

    def __repr__(self) -> str:
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


def chain(event: Event, callback: Callable[[Event], None]) -> None:
    """Run ``callback(event)`` once ``event`` is processed: at once if it
    already is (a zero-latency radio transition), else as its next
    callback -- where a process yielding ``event`` would resume."""
    if event._state == _PROCESSED:
        callback(event)
    else:
        event.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        # Inlined Event.__init__: timeouts are the kernel's hottest
        # allocation.
        if not 0.0 <= delay < _INF:
            raise ValueError(f"timeout delay must be finite and non-negative: {delay!r}")
        self.sim = sim
        self.callbacks = []
        self.delay = delay
        self._state = _TRIGGERED  # the firing time is fixed at creation
        self._ok = True
        self._value = value
        sim._push(sim._now + delay, self)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class FirstOf(Event):
    """Fires when the first of two events is processed.

    Its value is the winning event; a failing winner fails it with the
    winner's exception.  The trigger happens at ``now`` from the
    winner's dispatch, so every waiter resumes at the calendar position
    an N-way first-of condition would take.  The race is decided at
    construction when ``a`` (then ``b``) is already processed, and the
    callback is detached from the loser once decided: a long-lived
    event raced repeatedly (a shutdown event versus per-frame timeouts)
    must not accumulate dead callbacks.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, sim: "Simulator", a: Event, b: Event) -> None:
        if a.sim is not sim or b.sim is not sim:
            raise ValueError("cannot mix events from different simulators")
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = _PENDING
        if a._state == _PROCESSED:
            self._decide(a)
        elif b._state == _PROCESSED:
            self._decide(b)
        else:
            self._a = a
            self._b = b
            # A fresh bound method each time keeps the race free of a
            # reference cycle; list.remove finds it again by equality.
            a.callbacks.append(self._first)
            b.callbacks.append(self._first)

    def _first(self, winner: Event) -> None:
        if self._state:  # the same event raced against itself
            return
        loser = self._b if winner is self._a else self._a
        if loser._state != _PROCESSED:
            loser.callbacks.remove(self._first)
        self._decide(winner)

    def _decide(self, winner: Event) -> None:
        self._state = _TRIGGERED
        if winner._ok:
            self._value = winner
        else:
            self._ok = False
            self._value = winner._value
        sim = self.sim
        sim._push(sim._now, self)


class Condition(Event):
    """Base for composite events over a set of sub-events.

    The condition fires as soon as enough sub-events have fired.  Its
    value is a dict mapping each *triggered* sub-event to that event's
    value, in trigger order.  A failing sub-event fails the condition.

    Once the condition triggers, its callback is detached from every
    still-pending sub-event, so an event that outlives the condition
    keeps no dead callback.
    """

    __slots__ = ("_events", "_done_count", "_needed", "_cb")

    #: Fire after every sub-event (AllOf) or after the first.
    _NEEDS_ALL = True

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = _PENDING
        subs = tuple(events)
        self._events = subs
        self._done_count = 0
        if not subs:
            self._needed = 0
            self._cb = None
            self.succeed({})
            return
        self._needed = len(subs) if self._NEEDS_ALL else 1
        cb = self._cb = self._on_sub_event
        for event in subs:
            if event.sim is not sim:
                raise ValueError("cannot mix events from different simulators")
            if self._state:  # decided during this loop: attach nothing more
                continue
            if event._state == _PROCESSED:
                self._on_sub_event(event)
            else:
                event.callbacks.append(cb)

    def _on_sub_event(self, event: Event) -> None:
        if self._state:  # already triggered
            return
        if not event._ok:
            self.fail(event._value)
            self._detach()
            return
        done = self._done_count + 1
        self._done_count = done
        if done >= self._needed:
            self.succeed(self._collect())
            self._detach()

    def _detach(self) -> None:
        """Drop our callback from every sub-event that has not fired yet."""
        cb = self._cb
        for event in self._events:
            if event._state != _PROCESSED:
                try:
                    event.callbacks.remove(cb)
                except ValueError:
                    pass  # never attached (decided mid-init) or mid-dispatch

    def _collect(self) -> dict[Event, Any]:
        # Only *processed* events count as "fired": Timeouts are born
        # triggered (their firing time is fixed at creation), so testing
        # `triggered` would wrongly include every pending timeout.
        return {e: e._value for e in self._events if e._state == _PROCESSED and e._ok}


class AllOf(Condition):
    """Fires when every sub-event has fired."""

    __slots__ = ()
    _NEEDS_ALL = True
