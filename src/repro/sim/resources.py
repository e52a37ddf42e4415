"""Shared resources for processes: counted resources and item stores.

- :class:`Resource` — a counted resource with FIFO request queue (e.g. a
  radio channel, a server's transmit slot).
- :class:`Store` — an unbounded-or-bounded FIFO buffer of items (e.g. a
  packet queue); ``get`` blocks until an item is available, ``put`` blocks
  while the store is full.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


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

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
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


class Store:
    """FIFO item buffer with blocking ``get`` and (optionally) ``put``.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Maximum number of buffered items; ``None`` means unbounded.
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[Any, ...]:
        """Snapshot of buffered items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires once it is stored."""
        event = Event(self.sim)
        self.add(item, event)
        return event

    def add(self, item: Any, event: Optional[Event] = None) -> None:
        """:meth:`put` that creates no event: ``event``, if given, fires
        once ``item`` is stored (a full store queues it as a putter)."""
        if self._getters:
            # Hand straight to the longest-waiting getter.
            self._getters.popleft().succeed(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._putters.append((event, item))
            return
        if event is not None:
            event.succeed()

    def get(self) -> Event:
        """Remove the next item; the returned event fires with the item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
            self._admit_putters()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putters()
            return True, item
        return False, None

    def drain(self) -> list[Any]:
        """Remove and return all buffered items at once (may be empty)."""
        items = list(self._items)
        self._items.clear()
        self._admit_putters()
        return items

    def _admit_putters(self) -> None:
        """Store blocked putters' items, oldest first, while there is room."""
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            event, item = self._putters.popleft()
            self._items.append(item)
            if event is not None:
                event.succeed()
