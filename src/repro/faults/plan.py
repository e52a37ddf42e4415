"""Fault plans: declarative, deterministic schedules of injected failures.

A :class:`FaultPlan` is an ordered list of fault records — radio outages,
AP beacon blackouts, client churn windows and interference bursts — with
absolute start times.  Plans are plain data: JSON-serialisable via
:meth:`FaultPlan.describe`, hashable into campaign run keys, and
replayable byte-identically.

Randomised plans derive every draw from named
:class:`~repro.sim.streams.RandomStreams` substreams (``faults/...``), so
the same experiment seed always yields the same fault schedule — the
property the deterministic-failover tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Dict, List, Sequence, Tuple

from repro.sim.streams import RandomStreams


def _check_window(start_s: float, duration_s: float) -> None:
    if start_s < 0:
        raise ValueError(f"fault start must be >= 0, got {start_s}")
    if duration_s <= 0:
        raise ValueError(f"fault duration must be positive, got {duration_s}")


@dataclass(frozen=True)
class RadioOutage:
    """A wireless interface dies at ``start_s`` and revives after ``duration_s``.

    ``target`` is an fnmatch pattern over managed-interface names
    (``"client0/wlan"``, ``"*/wlan"``); every bound interface that matches
    is failed for the window.
    """

    target: str
    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.duration_s)
        if not self.target:
            raise ValueError("radio outage needs a target pattern")

    def matches(self, interface_name: str) -> bool:
        return fnmatchcase(interface_name, self.target)


@dataclass(frozen=True)
class BeaconOutage:
    """The access point stops beaconing for a window (TIM blackout)."""

    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.duration_s)


@dataclass(frozen=True)
class ClientChurn:
    """A client leaves mid-stream at ``leave_s`` and rejoins at ``rejoin_s``.

    While departed, the server schedules no bursts for it and its playout
    is suspended (no underruns accrue for a stream nobody is listening
    to); on rejoin, scheduling and playback resume from the buffered
    level.
    """

    client: str
    leave_s: float
    rejoin_s: float

    def __post_init__(self) -> None:
        if self.leave_s < 0:
            raise ValueError("leave time must be >= 0")
        if self.rejoin_s <= self.leave_s:
            raise ValueError("rejoin must come after leave")
        if not self.client:
            raise ValueError("churn needs a client name")


@dataclass(frozen=True)
class InterferenceBurst:
    """Link quality on matching interfaces drops by ``severity``.

    Models a co-channel interference burst: the interface stays alive but
    its quality signal is scaled by ``1 - severity`` (0 = clean air,
    0.9 = nearly jammed) for the window, which the server's
    interface-selection policy thresholds.  Overlapping bursts compound:
    two 0.5-severity bursts leave 0.25 of the link.
    """

    target: str
    start_s: float
    duration_s: float
    severity: float = 0.1

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.duration_s)
        if not self.target:
            raise ValueError("interference burst needs a target pattern")
        if not 0.0 <= self.severity < 1.0:
            raise ValueError(
                f"severity must be in [0, 1), got {self.severity}"
            )

    def matches(self, interface_name: str) -> bool:
        return fnmatchcase(interface_name, self.target)


#: Any concrete fault record.
Fault = Any


def _fault_sort_key(fault: Fault) -> Tuple[float, str, str]:
    start = getattr(fault, "start_s", None)
    if start is None:
        start = fault.leave_s
    return (start, type(fault).__name__, repr(fault))


@dataclass
class FaultPlan:
    """An ordered collection of fault records for one scenario run."""

    faults: List[Fault] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.faults = sorted(self.faults, key=_fault_sort_key)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def add(self, fault: Fault) -> "FaultPlan":
        self.faults.append(fault)
        self.faults.sort(key=_fault_sort_key)
        return self

    def of_type(self, kind: type) -> List[Fault]:
        return [fault for fault in self.faults if isinstance(fault, kind)]

    def describe(self) -> List[Dict[str, Any]]:
        """JSON-ready listing (stable order) for artifacts and traces."""
        out: List[Dict[str, Any]] = []
        for fault in self.faults:
            record: Dict[str, Any] = {"kind": type(fault).__name__}
            record.update(vars(fault))
            out.append(record)
        return out

    @classmethod
    def random(
        cls,
        streams: RandomStreams,
        duration_s: float,
        interface_names: Sequence[str],
        client_names: Sequence[str] = (),
        outage_rate_per_min: float = 1.0,
        outage_duration_s: Tuple[float, float] = (5.0, 20.0),
        interference_rate_per_min: float = 0.0,
        interference_duration_s: Tuple[float, float] = (1.0, 5.0),
        interference_severity: Tuple[float, float] = (0.0, 0.3),
        churn_probability: float = 0.0,
    ) -> "FaultPlan":
        """Draw a reproducible plan from dedicated ``faults/*`` substreams.

        Outage and interference arrivals are Poisson per target (drawn
        from the ``faults/outage/<name>`` and ``faults/interference/<name>``
        substreams); churn flips one coin per client on
        ``faults/churn/<name>``.  The same ``streams`` seed always
        produces the identical plan regardless of what any other model
        consumed.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        plan = cls()
        for name in interface_names:
            if outage_rate_per_min > 0:
                stream_name = f"faults/outage/{name}"
                t = streams.exponential(stream_name, 60.0 / outage_rate_per_min)
                while t < duration_s:
                    length = streams.uniform(stream_name, *outage_duration_s)
                    plan.add(RadioOutage(name, t, length))
                    t += length + streams.exponential(
                        stream_name, 60.0 / outage_rate_per_min
                    )
            if interference_rate_per_min > 0:
                stream_name = f"faults/interference/{name}"
                t = streams.exponential(
                    stream_name, 60.0 / interference_rate_per_min
                )
                while t < duration_s:
                    length = streams.uniform(
                        stream_name, *interference_duration_s
                    )
                    severity = streams.uniform(
                        stream_name, *interference_severity
                    )
                    plan.add(InterferenceBurst(name, t, length, severity))
                    t += length + streams.exponential(
                        stream_name, 60.0 / interference_rate_per_min
                    )
        for name in client_names:
            if churn_probability > 0 and streams.bernoulli(
                f"faults/churn/{name}", churn_probability
            ):
                leave = streams.uniform(
                    f"faults/churn/{name}", 0.2 * duration_s, 0.5 * duration_s
                )
                away = streams.uniform(
                    f"faults/churn/{name}", 0.1 * duration_s, 0.3 * duration_s
                )
                plan.add(ClientChurn(name, leave, leave + away))
        return plan

    def __repr__(self) -> str:
        kinds: Dict[str, int] = {}
        for fault in self.faults:
            kinds[type(fault).__name__] = kinds.get(type(fault).__name__, 0) + 1
        return f"<FaultPlan {kinds or 'empty'}>"
