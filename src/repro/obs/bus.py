"""The TraceBus: a structured event stream for the whole simulation.

Every layer of the stack emits :class:`TraceEvent`\\ s through one bus:
``(time_s, layer, entity, kind, **fields)``.  Layers are coarse package
names (``sim``, ``phy``, ``mac``, ``link``, ``transport``, ``core``,
``metrics``); entities are instance names (``client0/wlan``, ``ap``);
kinds are short event identifiers (``state``, ``beacon``, ``grant``).

Design constraints, in order:

1. **Zero overhead when disabled.**  Instrumented hot paths guard every
   emit with a single ``if bus.enabled:`` check; the default trace on
   every :class:`~repro.sim.core.Simulator` is permanently disabled, so
   an un-instrumented run pays one attribute read and one branch per
   potential event and allocates nothing.
2. **Bounded memory.**  Retained events live in a ring buffer
   (``collections.deque(maxlen=capacity)``); streaming consumers (JSONL
   export, metrics collection) subscribe instead of relying on retention.
3. **Deterministic output.**  Events carry simulation time only — never
   wall-clock — so a seeded run produces a byte-identical trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One structured occurrence on the bus."""

    time_s: float
    layer: str
    entity: str
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Flatten to a JSON-ready dict (``fields`` merged in)."""
        record: Dict[str, Any] = {
            "time_s": self.time_s,
            "layer": self.layer,
            "entity": self.entity,
            "kind": self.kind,
        }
        record.update(self.fields)
        return record


#: Subscriber callback signature.
Subscriber = Callable[[TraceEvent], None]


@dataclass
class _Subscription:
    callback: Subscriber
    layers: Optional[frozenset]
    entities: Optional[frozenset]
    kinds: Optional[frozenset]

    def accepts(self, event: TraceEvent) -> bool:
        return (
            (self.layers is None or event.layer in self.layers)
            and (self.entities is None or event.entity in self.entities)
            and (self.kinds is None or event.kind in self.kinds)
        )


class TraceBus:
    """Structured event stream with filtering subscribers and a ring buffer.

    Parameters
    ----------
    capacity:
        Ring-buffer size; 0 retains nothing (streaming subscribers still
        see every event).
    enabled:
        Initial enablement; when False, :meth:`emit` is a no-op.
    """

    __slots__ = ("enabled", "_clock", "_ring", "_subscriptions", "_emitted")

    def __init__(self, capacity: int = 65_536, enabled: bool = True) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        #: The hot-path guard: emit only when this is True.  Deliberately
        #: a plain slot attribute, not a property — instrumented hot
        #: paths read it once per potential event, and a property would
        #: put a descriptor call on every one of those reads.
        self.enabled = bool(enabled)
        self._clock: Callable[[], float] = lambda: 0.0
        self._ring: Optional[deque] = deque(maxlen=capacity) if capacity else None
        self._subscriptions: List[_Subscription] = []
        self._emitted = 0

    # -- enablement ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- clock binding -------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the bus at a time source (the owning simulator's clock)."""
        self._clock = clock

    # -- emission ------------------------------------------------------------

    def emit(self, layer: str, entity: str, kind: str, **fields: Any) -> None:
        """Publish one event (no-op while disabled)."""
        if not self.enabled:
            return
        event = TraceEvent(self._clock(), layer, entity, kind, fields)
        self._emitted += 1
        if self._ring is not None:
            self._ring.append(event)
        for subscription in self._subscriptions:
            if subscription.accepts(event):
                subscription.callback(event)

    @property
    def emitted(self) -> int:
        """Total events published since construction (ring may hold fewer)."""
        return self._emitted

    # -- subscription --------------------------------------------------------

    def subscribe(
        self,
        callback: Subscriber,
        layers: Optional[Iterable[str]] = None,
        entities: Optional[Iterable[str]] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> Subscriber:
        """Register ``callback`` for matching events; returns it for unsubscribe."""
        self._subscriptions.append(
            _Subscription(
                callback=callback,
                layers=frozenset(layers) if layers is not None else None,
                entities=frozenset(entities) if entities is not None else None,
                kinds=frozenset(kinds) if kinds is not None else None,
            )
        )
        return callback

    def unsubscribe(self, callback: Subscriber) -> None:
        self._subscriptions = [
            s for s in self._subscriptions if s.callback is not callback
        ]

    @property
    def subscriber_count(self) -> int:
        return len(self._subscriptions)

    # -- retained events -----------------------------------------------------

    def events(
        self,
        layer: Optional[str] = None,
        entity: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> List[TraceEvent]:
        """Events still in the ring buffer, optionally filtered."""
        if self._ring is None:
            return []
        return [
            e
            for e in self._ring
            if (layer is None or e.layer == layer)
            and (entity is None or e.entity == entity)
            and (kind is None or e.kind == kind)
        ]

    def clear(self) -> None:
        if self._ring is not None:
            self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring) if self._ring is not None else 0

    def __repr__(self) -> str:
        flag = "on" if self.enabled else "off"
        return f"<TraceBus {flag} retained={len(self)} emitted={self._emitted}>"
