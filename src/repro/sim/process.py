"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.sim.events.Event`; the process suspends
until that event fires, then resumes with the event's value (or with the
event's exception thrown into the generator).  The process itself is an
event that fires when the generator returns, so processes can wait on each
other.

Processes can be interrupted: :meth:`Process.interrupt` raises
:class:`Interrupt` inside the generator at the current simulation time,
detaching it from whatever event it was waiting on.

Resume filtering
----------------
``_resume`` only accepts a trigger that is either the event the process
is currently waiting on (``_target``) or a pending interrupt carrier.
Anything else is a *stale* trigger and is ignored.  The stale case is
real: if ``interrupt()`` runs while the waited-on event is already
dispatching its callbacks (the kernel has snapshotted the list, so the
detach's ``remove`` finds nothing), the original event still invokes
``_resume`` in the same tick — without the identity check the process
would resume from the event it was just interrupted away from *and*
later receive the Interrupt against the wrong target.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional

from repro.sim.events import _PROCESSED, NORMAL, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

ProcessGenerator = Generator[Event, Any, Any]


class Interrupt(Exception):
    """Raised inside a process generator when the process is interrupted."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class Process(Event):
    """An event-yielding generator running inside the simulator.

    Do not instantiate directly; use :meth:`Simulator.process`.
    """

    __slots__ = (
        "_generator",
        "_target",
        "_started",
        "_validated",
        "_carriers",
        "_resume_cb",
        "_send",
        "_throw",
        "name",
    )

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self._started = False
        #: First yield of the generator gets the full isinstance/simulator
        #: checks; later yields use the cheap fast path (see _resume).
        self._validated = False
        #: Interrupt carrier events scheduled but not yet delivered.
        self._carriers: List[Event] = []
        # Bound methods are cached once: creating a fresh bound-method
        # object per yield/send is measurable on the hot path.
        self._resume_cb = self._resume
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        # Kick the generator off at the current simulation time.  The
        # bootstrap doubles as the initial expected trigger so the first
        # _resume passes the stale-trigger check.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume_cb)
        self._target: Optional[Event] = bootstrap
        bootstrap.succeed()

    # -- public API --------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is already scheduled to resume delivers the interrupt first.
        """
        if self._state:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        # Detach from the event we were waiting on so its eventual firing
        # does not resume us a second time.  The remove can fail when that
        # event is dispatching right now (callbacks already snapshotted);
        # the stale-trigger check in _resume covers that window.  The
        # bootstrap of a not-yet-started process must stay attached: the
        # generator has to start before it can catch the interrupt.
        if self._started and self._target is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
            self._target = None
        carrier = Event(self.sim)
        carrier.callbacks.append(self._resume_cb)
        carrier._state = 1  # triggered
        carrier._ok = False
        carrier._value = Interrupt(cause)
        self._carriers.append(carrier)
        # A generator that has not started yet cannot catch a thrown
        # exception; deliver the interrupt at NORMAL priority so the
        # bootstrap (scheduled earlier) runs first.
        priority = URGENT if self._started else NORMAL
        self.sim._schedule(carrier, 0.0, priority)

    # -- kernel machinery ----------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the value/exception of ``trigger``."""
        if self._state:
            # The process already finished (e.g. interrupted away from the
            # event that now fired); stale triggers are ignored.
            return
        target = self._target
        if trigger is target:
            self._target = None
        else:
            carriers = self._carriers
            if carriers and trigger in carriers:
                carriers.remove(trigger)
                if target is not None:
                    # Interrupt overtook the wait: detach from the event
                    # we were parked on (it may outlive us by a long time).
                    try:
                        target.callbacks.remove(self._resume_cb)
                    except ValueError:
                        pass
                    self._target = None
            else:
                # Neither the current wait target nor a pending interrupt
                # carrier: a stale wakeup from an event we already left.
                return
        self._started = True
        sim = self.sim
        send = self._send
        throw = self._throw
        resume_cb = self._resume_cb
        validated = self._validated
        try:
            while True:
                if trigger._ok:
                    yielded = send(trigger._value)
                else:
                    yielded = throw(trigger._value)
                if validated:
                    # Fast path: trust the generator after its first valid
                    # yield; a non-event still surfaces as a TypeError via
                    # the missing ``_state`` slot.
                    try:
                        state = yielded._state
                    except AttributeError:
                        raise TypeError(
                            f"process {self.name!r} yielded {yielded!r}; "
                            "processes may only yield Event instances"
                        ) from None
                else:
                    if not isinstance(yielded, Event):
                        raise TypeError(
                            f"process {self.name!r} yielded {yielded!r}; "
                            "processes may only yield Event instances"
                        )
                    if yielded.sim is not sim:
                        raise ValueError(
                            f"process {self.name!r} yielded an event belonging to "
                            "a different simulator"
                        )
                    validated = self._validated = True
                    state = yielded._state
                if state == _PROCESSED:
                    # Already-fired event: loop and deliver immediately.
                    trigger = yielded
                    continue
                yielded.callbacks.append(resume_cb)
                self._target = yielded
                return
        except StopIteration as stop:
            self.succeed(stop.value)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            # The generator died: fail the process event so waiters see it.
            self.fail(exc)

    def __repr__(self) -> str:
        status = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {status}>"
