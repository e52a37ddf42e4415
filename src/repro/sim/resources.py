"""Item stores shared by processes.

:class:`Store` is an unbounded-or-bounded FIFO buffer of items (e.g. a
packet queue); ``get`` blocks until an item is available, ``put`` blocks
while the store is full.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


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
