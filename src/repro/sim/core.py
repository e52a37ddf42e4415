"""The simulator: event queue and run loop.

Scheduling is deterministic: queue entries are ordered by
``(time, priority, sequence)`` where the sequence number increases
monotonically, so events scheduled for the same instant fire in the order
they were scheduled (kernel-internal wakeups first).

Queue structure (calendar queue)
--------------------------------
The pending set is split into two tiers so the hot path pushes into a
small heap instead of one global heap spanning the whole horizon:

- ``_current`` — a heap holding every entry whose bucket index equals
  ``_cur_idx`` (the bucket the clock is currently inside).
- ``_buckets`` — a calendar of *unsorted* lists keyed by bucket index
  (``int(time * _scale)``), for entries beyond the current bucket.
  Insertion is a plain ``list.append``.  ``_order`` is a heap of the
  occupied bucket indices — the far-future overflow structure that tells
  the kernel which bucket to promote next.

When ``_current`` drains, the lowest occupied bucket is promoted: its
entries are heapified into ``_current`` and ``_cur_idx`` jumps straight
to that bucket (empty buckets are never visited, so sparse horizons cost
nothing).  Total order is preserved exactly because the bucket index
``int(t * scale)`` is monotone in ``t``: every entry in a future bucket
compares strictly greater on time than every entry in ``_current``, and
entries with equal time always share a bucket, where the heap breaks
ties by ``(priority, seq)`` as before.

Every entry enters the calendar through :meth:`Simulator._push` and
leaves it through :meth:`Simulator.step`; there is no other insert or
dispatch path.

The dispatching entry
---------------------
``Simulator._dispatching`` publishes the calendar entry
``(time, priority, sequence, event)`` of the latest non-urgent dispatch;
:meth:`Simulator.run` resets it to ``None`` when it returns.  Consumers that settle
deferred work lazily (:class:`repro.apps.traffic.ArrivalFeed`) compare
their own would-be entries against it: anything sorting at or before it
has been dispatched.  Urgent entries are never published — an urgent
wakeup sorts before normal entries of its own instant that already ran,
so publishing it would hide them; the last normal entry stays the
high-water mark instead.  Sequence numbers may be *reserved* (``_seq``
advanced without a push) for entries a consumer settles arithmetically,
which keeps every later tie-break and ``events_scheduled`` unchanged.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Iterable, List, Optional, Sequence

from repro.sim.events import _INF, NORMAL, AllOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

#: Default calendar bucket width in seconds.  Chosen so that typical MAC
#: timescales (µs slots, ms frame times) land in the current bucket —
#: the fast path — while beacon intervals and session timers spread over
#: the calendar instead of bloating one heap.
_DEFAULT_BUCKET_WIDTH_S = 1e-3


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
    bucket_width_s:
        Calendar bucket width.  Purely a performance knob: any positive
        width yields the identical dispatch order.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        trace: Any = None,
        bucket_width_s: float = _DEFAULT_BUCKET_WIDTH_S,
    ) -> None:
        if bucket_width_s <= 0:
            raise ValueError(f"bucket width must be positive: {bucket_width_s!r}")
        self._now = float(start_time)
        self._scale = 1.0 / bucket_width_s
        self._cur_idx = int(self._now * self._scale)
        #: Heap of entries in the current bucket (the only sorted tier).
        self._current: List[tuple] = []
        #: Unsorted future buckets keyed by ``int(t * _scale)``.
        self._buckets: dict[int, List[tuple]] = {}
        #: Heap of occupied future-bucket indices (promotion order).
        self._order: List[int] = []
        #: Pending entries in future buckets (current tier uses ``len``).
        self._future_count = 0
        self._seq = 0
        #: Entry of the latest non-urgent dispatch; run() resets it to None.
        self._dispatching: Optional[tuple] = None
        self._active_process: Optional[Process] = None
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
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

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
        return len(self._current) + self._future_count

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
        self._push(when, NORMAL, event)
        return event

    def bulk_timeouts(self, times: Sequence[float], values: Any = None) -> List[Timeout]:
        """Batch-create timeouts firing at the given *absolute* times.

        :meth:`timeout_at` for each time in turn, except that the whole
        batch is checked before anything is queued: ``times`` must be
        finite, non-decreasing and must not precede the current time.
        Sequence numbers are assigned in list order, preserving the
        deterministic same-instant tie-break.

        Parameters
        ----------
        times:
            Absolute fire times, finite, non-decreasing, each ``>= self.now``.
        values:
            Optional per-timeout values (same length as ``times``).
        """
        if values is None:
            values = [None] * len(times)
        elif len(values) != len(times):
            raise ValueError("values must match times in length")
        previous = self._now
        for when in times:
            if when < previous:
                raise SimulationError(
                    f"bulk_timeouts times must be non-decreasing and >= now "
                    f"(got {when!r} after {previous!r})"
                )
            if not when < _INF:
                raise ValueError(f"bulk_timeouts times must be finite (got {when!r})")
            previous = when
        timeout_at = self.timeout_at
        return [timeout_at(when, value) for when, value in zip(times, values)]

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling (kernel use) -----------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"delay must be finite and non-negative (delay={delay!r})"
            )
        self._push(self._now + delay, priority, event)

    def _push(self, when: float, priority: int, event: Event) -> None:
        """Insert an entry into the calendar: the kernel's only insert.

        Entries in the current bucket go onto the ``_current`` heap, later
        ones onto their (created on first use) future bucket.  Callers
        validate ``when``; the bucket index is computed before any state
        changes, so a failing insert leaves the kernel untouched.
        """
        idx = int(when * self._scale)
        seq = self._seq + 1
        self._seq = seq
        if idx <= self._cur_idx:
            heappush(self._current, (when, priority, seq, event))
            return
        bucket = self._buckets.get(idx)
        if bucket is None:
            self._buckets[idx] = bucket = []
            heappush(self._order, idx)
        bucket.append((when, priority, seq, event))
        self._future_count += 1

    def _advance(self) -> bool:
        """Promote the lowest occupied future bucket into ``_current``.

        Returns False when no future bucket exists (queue fully drained).
        Only called with ``_current`` empty, so the promoted entries are
        exactly the next slice of the global order.
        """
        order = self._order
        if not order:
            return False
        idx = heappop(order)
        bucket = self._buckets.pop(idx)
        self._cur_idx = idx
        self._future_count -= len(bucket)
        current = self._current
        current.extend(bucket)
        heapify(current)
        return True

    # -- run loop ----------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if not self._current and not self._advance():
            return _INF
        return self._current[0][0]

    def _peek_event(self) -> Optional[Event]:
        """The next event to dispatch, without dispatching it (profilers)."""
        if not self._current and not self._advance():
            return None
        return self._current[0][3]

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
        if not self._current and not self._advance():
            raise SimulationError("step() on an empty event queue")
        entry = heappop(self._current)
        when, priority, _seq, event = entry
        self._now = when
        if priority:
            self._dispatching = entry
        if self.trace.enabled:
            self.trace.emit(
                "sim",
                "kernel",
                "dispatch",
                event=type(event).__name__,
                queued=len(self._current) + self._future_count,
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
        current = self._current  # _advance refills this same list
        advance = self._advance
        step = self.step
        try:
            while (current or advance()) and current[0][0] <= bound:
                step()
        finally:
            self._dispatching = None
        if until is not None:
            self._now = float(until)

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.6f} queued={self.queue_depth}>"
