"""Core event types for the simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.  It
moves through three states: *pending* (created, not yet triggered),
*triggered* (scheduled to fire, value set) and *processed* (callbacks have
run).  Events may succeed with a value or fail with an exception.

:class:`Timeout` is an event that triggers after a fixed delay.
:class:`AnyOf` / :class:`AllOf` combine several events into one.

Hot-path note
-------------
``Timeout.__init__``, ``Event.succeed`` and the :class:`Condition` fire
path inline the simulator's calendar-queue insert instead of calling
``Simulator._schedule``: together they account for nearly every event
the kernel schedules, and the call overhead is measurable at the 1M
events/s target.  The insert logic must stay in lockstep with
``Simulator._schedule`` (see ``core.py``); the kernel-ordering property
tests in ``tests/sim/test_kernel_order.py`` pin the equivalence.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.core import Simulator

#: Scheduling priority for ordinary events.
NORMAL = 1
#: Scheduling priority for kernel-internal wakeups (processed first at a tick).
URGENT = 0

_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2


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
        self._state = _TRIGGERED
        self._ok = True
        self._value = value
        if delay:
            self.sim._schedule(self, delay, NORMAL)
            return self
        # Inlined immediate schedule (mirrors Simulator._schedule).
        sim = self.sim
        when = sim._now
        seq = sim._seq + 1
        sim._seq = seq
        if int(when * sim._scale) <= sim._cur_idx:
            heappush(sim._current, (when, NORMAL, seq, self))
        else:
            # run(until) moved the clock past the current bucket; take
            # the generic path rather than duplicating bucket creation.
            sim._enqueue_future(when, NORMAL, seq, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with ``exception`` after ``delay``."""
        if self._state != _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = _TRIGGERED
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay, NORMAL)
        return self

    # -- kernel hooks ------------------------------------------------------

    def _mark_processed(self) -> None:
        self._state = _PROCESSED

    def __repr__(self) -> str:
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        # Inlined Event.__init__ + calendar insert: timeouts are the
        # kernel's hottest allocation and the call overhead is real.
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self.sim = sim
        self.callbacks = []
        self.delay = delay
        self._state = _TRIGGERED  # the firing time is fixed at creation
        self._ok = True
        self._value = value
        when = sim._now + delay
        seq = sim._seq + 1
        sim._seq = seq
        if int(when * sim._scale) <= sim._cur_idx:
            heappush(sim._current, (when, NORMAL, seq, self))
        else:
            sim._enqueue_future(when, NORMAL, seq, self)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class Condition(Event):
    """Base for composite events over a set of sub-events.

    The condition fires as soon as enough sub-events have fired.  Its
    value is a dict mapping each *triggered* sub-event to that event's
    value, in trigger order.  A failing sub-event fails the condition.

    Once the condition triggers, its callback is detached from every
    still-pending sub-event: a long-lived event raced repeatedly (e.g. a
    shutdown event versus per-frame timeouts) must not accumulate dead
    callbacks from conditions that were decided long ago.

    ``events`` may be a tuple, in which case it is used as-is without a
    defensive copy (the hot composition path in the MAC layer builds a
    fresh tuple per race).
    """

    __slots__ = ("_events", "_done_count", "_needed", "_cb")

    #: Subclasses fire after one sub-event (AnyOf) or all of them (AllOf).
    _NEEDS_ALL = True

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = _PENDING
        subs = events if type(events) is tuple else tuple(events)
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

    def _threshold(self) -> int:
        return len(self._events) if self._NEEDS_ALL else 1

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
            # Inlined succeed() + immediate schedule: this fires once per
            # AnyOf race, which the MAC runs per idle backoff period and
            # per ACK/CTS wait.
            self._state = _TRIGGERED
            self._value = {
                e: e._value for e in self._events if e._state == _PROCESSED and e._ok
            }
            sim = self.sim
            when = sim._now
            seq = sim._seq + 1
            sim._seq = seq
            if int(when * sim._scale) <= sim._cur_idx:
                heappush(sim._current, (when, NORMAL, seq, self))
            else:
                sim._enqueue_future(when, NORMAL, seq, self)
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


class AnyOf(Condition):
    """Fires when any one of the sub-events fires."""

    __slots__ = ()
    _NEEDS_ALL = False


class AllOf(Condition):
    """Fires when every sub-event has fired."""

    __slots__ = ()
    _NEEDS_ALL = True


def _describe(event: Optional[Event]) -> str:
    """Human-readable description of an event for error messages."""
    return repr(event) if event is not None else "<no event>"
