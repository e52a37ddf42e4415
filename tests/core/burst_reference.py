"""Test-only reference: Hotspot interface commands and bursts as processes.

``ManagedInterface`` runs wake, sleep and transfer, and ``HotspotClient``
runs its bursts and its start-up parking, as chains of callbacks on the
radio's transition events and the transfer timer.  Before that each
command was a generator run as a one-shot ``Process`` that queued on a
``Resource`` for the interface, and a burst was a process yielding three
of them.  Those generators are kept here as the oracle the property
tests in ``test_burst_chains.py`` compare the chains against.

The bodies are those of the process forms, unchanged.  A process costs
kernel events the chain does not have: its bootstrap, its completion and
the grant of its ``Resource`` request.  The one behaviour that differs
is when a burst checks that its interface is alive: the chain at the
call, the process at its bootstrap, one dispatch later (and it counted
the burst in ``bursts_in_flight`` from the call either way);
``test_burst_chains.py`` pins that difference on its own.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core import HotspotClient
from repro.core.interfaces import ManagedInterface
from repro.sim.core import Simulator
from repro.sim.events import Event


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted.

    Usable as a context manager so a release is never forgotten::

        with resource.request() as req:
            yield req
            ... # holding the resource
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with a FIFO wait queue.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Number of simultaneous holders allowed (default 1).
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._holders: set[Request] = set()
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for the resource."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim the resource; the returned event fires when granted."""
        req = Request(self)
        if len(self._holders) < self.capacity:
            self._holders.add(req)
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a previously granted (or still-queued) request."""
        if request in self._holders:
            self._holders.remove(request)
            while self._waiting and len(self._holders) < self.capacity:
                nxt = self._waiting.popleft()
                self._holders.add(nxt)
                nxt.succeed(nxt)
        else:
            # Cancelling a queued request is allowed and idempotent.
            try:
                self._waiting.remove(request)
            except ValueError:
                pass


class ProcessManagedInterface(ManagedInterface):
    """A :class:`ManagedInterface` whose commands are processes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._control = Resource(self.sim)

    def wake(self):
        return self.sim.process(self._goto_body(self.resting_state))

    def sleep(self):
        return self.sim.process(self._goto_body(self.sleep_state))

    def transfer(self, nbytes: int):
        return self.sim.process(self._transfer_body(nbytes))

    def _goto_body(self, target: str):
        with self._control.request() as grant:
            yield grant
            while self.radio.in_transition:
                yield self.sim.timeout(0.0005)
            if self.radio.state != target:
                yield self.radio.transition_to(target)

    def _transfer_body(self, nbytes: int):
        duration = self.transfer_duration_s(nbytes)
        yield from self._goto_body(self.active_state)
        if duration > 0:
            yield self.sim.timeout(duration)
        yield from self._goto_body(self.resting_state)
        self.bytes_transferred += nbytes
        self.bursts += 1
        return duration


class ProcessHotspotClient(HotspotClient):
    """A :class:`HotspotClient` whose bursts are processes (its
    interfaces must be :class:`ProcessManagedInterface`)."""

    def initialise(self):
        def body():
            for interface in self.interfaces.values():
                yield interface.sleep()

        return self.sim.process(body(), name=f"{self.name}-init")

    def execute_burst(self, interface_name: str, nbytes: int):
        if interface_name not in self.interfaces:
            raise KeyError(
                f"client {self.name!r} has no interface {interface_name!r}"
            )
        if nbytes <= 0:
            raise ValueError("burst must be positive")
        self.bursts_in_flight += 1
        return self.sim.process(
            self._burst_body(interface_name, nbytes),
            name=f"{self.name}-burst",
        )

    def _burst_body(self, interface_name: str, nbytes: int):
        try:
            result = yield from self._burst_steps(interface_name, nbytes)
        finally:
            self.bursts_in_flight -= 1
        return result

    def _burst_steps(self, interface_name: str, nbytes: int):
        interface = self.interfaces[interface_name]
        if not interface.alive:
            # The WNIC died between scheduling and service: report zero
            # bytes so the server keeps the backlog and re-schedules the
            # burst on whatever interface the next round selects.
            bus = self.sim.trace
            if bus.enabled:
                bus.emit(
                    "core",
                    self.name,
                    "burst-abort",
                    interface=interface_name,
                    nbytes=nbytes,
                )
            return 0
        started = self.sim.now
        yield interface.wake()
        yield interface.transfer(nbytes)
        # Advance the playout model to the end of the transfer, then fill.
        self.playout.deliver(self.sim.now, nbytes)
        self.bursts_received += 1
        self.bytes_received += nbytes
        self.burst_log.append((self.sim.now, interface_name, nbytes))
        bus = self.sim.trace
        if bus.enabled:
            bus.emit(
                "core",
                self.name,
                "burst",
                interface=interface_name,
                nbytes=nbytes,
                duration_s=self.sim.now - started,
                buffered_s=self.playout.playback_time_buffered_s(),
            )
        yield interface.sleep()
        return nbytes
