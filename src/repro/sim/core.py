"""The simulator: event queue and run loop.

Scheduling is deterministic: queue entries are ordered by
``(time, sequence)`` where the sequence number increases monotonically,
so events scheduled for the same instant fire in the order they were
scheduled.

The pending set is one binary heap of ``(time, sequence, event)``
entries.  Every entry enters it through :meth:`Simulator._push` and
leaves it through :meth:`Simulator.step`; there is no other insert or
dispatch path.

The dispatching entry
---------------------
``Simulator._dispatching`` publishes the heap entry
``(time, sequence, event)`` of the latest dispatch; :meth:`Simulator.run`
resets it to ``None`` when it returns.  Consumers that settle deferred
work lazily (:class:`repro.apps.traffic.ArrivalFeed`) compare their own
would-be entries against it: anything sorting at or before it has been
dispatched.  Sequence numbers may be *reserved* (``_seq`` advanced
without a push) for entries a consumer settles arithmetically, which
keeps every later tie-break and ``events_scheduled`` unchanged.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterable, List, Optional

from repro.sim.events import _INF, AllOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator


class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused (e.g. time reversal)."""


class _DisabledTrace:
    """Permanently-off stand-in for a :class:`repro.obs.bus.TraceBus`.

    Defined here (not in ``repro.obs``) so the kernel depends on nothing:
    instrumented hot paths across the stack guard with a single
    ``if sim.trace.enabled:`` check against this sentinel.
    """

    __slots__ = ()
    enabled = False

    def emit(self, layer: str, entity: str, kind: str, **fields: Any) -> None:
        """No-op; a real bus is attached via :meth:`Simulator.attach_trace`."""


_NULL_TRACE = _DisabledTrace()


class Simulator:
    """A discrete-event simulator with a deterministic run loop.

    Parameters
    ----------
    start_time:
        Initial simulation time (default ``0.0``).  Time units are
        seconds throughout this project.
    trace:
        Optional :class:`repro.obs.bus.TraceBus` to bind; without one,
        ``self.trace`` is a permanently disabled sentinel and
        instrumentation costs one attribute read + branch per site.
    """

    def __init__(self, start_time: float = 0.0, trace: Any = None) -> None:
        self._now = float(start_time)
        #: Heap of pending ``(time, seq, event)`` entries.
        self._heap: List[tuple] = []
        self._seq = 0
        #: Entry of the latest dispatch; run() resets it to None.
        self._dispatching: Optional[tuple] = None
        self.trace: Any = _NULL_TRACE
        if trace is not None:
            self.attach_trace(trace)

    def attach_trace(self, bus: Any) -> None:
        """Bind a TraceBus: its clock becomes this simulator's clock."""
        bus.bind_clock(lambda: self._now)
        self.trace = bus

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled — a cheap proxy for kernel work.

        Monotonic over a run (it is the scheduling sequence counter), so
        benchmarks can report throughput as events per wall-clock second
        without attaching a profiler.
        """
        return self._seq

    @property
    def queue_depth(self) -> int:
        """Events currently pending in the queue (instantaneous backlog)."""
        return len(self._heap)

    # -- event factories -------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create a timeout firing at exactly the absolute time ``when``.

        ``when`` must be finite and not precede the current time.  Unlike
        ``self.timeout(when - self.now)``, the fire time is ``when``
        itself, with no ``now + (when - now)`` round-trip through float
        subtraction.
        """
        now = self._now
        if when < now:
            raise SimulationError(
                f"timeout_at time must be >= now (got {when!r} before {now!r})"
            )
        if not when < _INF:
            raise ValueError(f"timeout_at time must be finite (got {when!r})")
        event = Timeout.__new__(Timeout)
        event.sim = self
        event.callbacks = []
        event.delay = when - now
        event._state = 1  # _TRIGGERED: fire time fixed at creation
        event._ok = True
        event._value = value
        self._push(when, event)
        return event

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling (kernel use) -----------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative (delay={delay!r})"
            )
        self._push(self._now + delay, event)

    def _push(self, when: float, event: Event) -> None:
        """Insert an entry into the heap: the kernel's only insert.

        Callers validate ``when``.
        """
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (when, seq, event))

    # -- run loop ----------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        return heap[0][0] if heap else _INF

    def _peek_event(self) -> Optional[Event]:
        """The next event to dispatch, without dispatching it (profilers)."""
        heap = self._heap
        return heap[0][2] if heap else None

    def step(self) -> None:
        """Process exactly one event.

        With a trace attached, a ``sim/kernel/dispatch`` record is emitted
        after the pop (so the bus clock reads the event's time) and before
        the callbacks run (so layer events nest under their dispatch).

        Raises
        ------
        SimulationError
            If the queue is empty.
        """
        heap = self._heap
        if not heap:
            raise SimulationError("step() on an empty event queue")
        entry = self._dispatching = heappop(heap)
        when, _seq, event = entry
        self._now = when
        if self.trace.enabled:
            self.trace.emit(
                "sim",
                "kernel",
                "dispatch",
                event=type(event).__name__,
                queued=len(heap),
            )
        callbacks = event.callbacks
        event.callbacks = []  # further appends would never run
        event._state = 2  # _PROCESSED
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks:
            # A failure nobody waited for must not pass silently.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulation time reaches ``until``.

        When ``until`` is given, time is advanced to exactly ``until`` even
        if the queue drains earlier, so time-weighted statistics close
        consistently.  Each event is dispatched by one ``self.step()``
        call, so a profiler that wraps ``step`` sees every event.  On
        exit the published dispatching entry resets to ``None``.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until!r}) is in the past (now={self._now!r})"
            )
        bound = _INF if until is None else until
        heap = self._heap
        step = self.step
        try:
            while heap and heap[0][0] <= bound:
                step()
        finally:
            self._dispatching = None
        if until is not None:
            self._now = float(until)

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.6f} queued={self.queue_depth}>"
