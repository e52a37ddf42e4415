"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: each value the generator
yields must be an :class:`~repro.sim.events.Event`; the process suspends
until that event fires, then resumes with the event's value (or with the
event's exception thrown into the generator).  The process itself is an
event that fires when the generator returns, so processes can wait on each
other.

A process puts its resume callback on one event at a time -- first its
bootstrap, then each event it yields -- so every resume comes from the
event the process is waiting on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import _PROCESSED, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """An event-yielding generator running inside the simulator.

    Do not instantiate directly; use :meth:`Simulator.process`.
    """

    __slots__ = (
        "_validated",
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
        #: First yield of the generator gets the full isinstance/simulator
        #: checks; later yields use the cheap fast path (see _resume).
        self._validated = False
        # Bound methods are cached once: creating a fresh bound-method
        # object per yield/send is measurable on the hot path.
        self._resume_cb = self._resume
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        # Kick the generator off at the current simulation time.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume_cb)
        bootstrap.succeed()

    # -- public API --------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- kernel machinery ----------------------------------------------------

    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the value/exception of ``trigger``."""
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
