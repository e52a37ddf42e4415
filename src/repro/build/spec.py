"""Declarative world specifications: stack composition as data.

The paper's Hotspot is a *composition* story — per-client stacks
(radio → interface → MAC → link → QoS/playout) assembled under a
resource manager.  These dataclasses describe such a world declaratively
so :class:`~repro.build.builder.WorldBuilder` can assemble a runnable
simulation from the description instead of every scenario hand-wiring
its own:

- :class:`InterfaceSpec` — one WNIC kind (wlan / bluetooth / gprs) with
  optional scripted link quality and rate override;
- :class:`TrafficSpec` — the application source feeding one client;
- :class:`NodeSpec` — one client: its interfaces, traffic, playout
  buffer and proxy-prefetch depth;
- :class:`FleetSpec` — the multi-AP extension: topology, mobility and
  handoff parameters;
- :class:`WorldSpec` — the whole run: delivery flavour, duration, seed,
  clients, server knobs, faults.

Determinism contract: the same ``WorldSpec`` and seed always build the
same world and produce a byte-identical ``summary_record()`` — that is
what the golden-equivalence tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro._domain import Domain, SpecError, domain, validate
from repro.apps.traffic import traffic_kinds

#: Delivery flavours the builder knows how to assemble.
DELIVERY_MODES = ("hotspot", "unscheduled", "psm", "fleet", "pamas", "ecmac")

#: Interface kinds the builder can construct.
INTERFACE_KINDS = ("wlan", "bluetooth", "gprs")

#: Station power policies a ``psm`` world can run.
POWER_POLICIES = ("cam", "psm", "unap")

#: The builder's knobs in ``WorldSpec.extras``, each held to the rule its
#: consumer enforces; any other key passes through untouched.
_EXTRAS = {
    "psm_listen_interval": Domain(int, ge=1),  # PsmStation
    "psm_direction": Domain(str, choices=("downlink", "uplink")),
    "rts_threshold_bytes": Domain(int, ge=0, optional=True),  # DcfConfig
    "pamas_capacity_j": Domain(float, gt=0),  # Battery
    "pamas_cycle_s": Domain(float, gt=0),  # PamasNode
    "pamas_threshold": Domain(float, gt=0, le=1),  # linear_sleep_policy
    "ecmac_superframe_s": Domain(float, gt=0),  # EcMacConfig
}

#: ``FleetSpec``'s ``(low, high)`` pairs, each low end held to the rule
#: its consumer enforces (and ``low <= high``).
_FLEET_RANGES = {
    "speed_range_m_s": Domain(float, gt=0),  # RandomWaypoint
    "pause_range_s": Domain(float, ge=0),  # RandomWaypoint
    "handoff_latency_range_s": Domain(float, ge=0),  # HandoffManager
}
_ANY_FLOAT = Domain(float)


def _view(value: Any) -> Any:
    """JSON-safe view of a field: tuples as lists, specs described."""
    if isinstance(value, tuple):
        return [_view(item) for item in value]
    return value.describe() if hasattr(value, "describe") else value


def _describe(spec: Any) -> Dict[str, Any]:
    """Every field of ``spec`` in declaration order, as :func:`_view` shows it."""
    return {f.name: _view(getattr(spec, f.name)) for f in fields(spec)}


@dataclass(frozen=True)
class InterfaceSpec:
    """One wireless interface on a client.

    Parameters
    ----------
    kind:
        ``"wlan"``, ``"bluetooth"`` or ``"gprs"``.
    quality_script:
        Optional ``(time, quality)`` pairs driving a scripted
        link-quality timeline (the paper's Bluetooth-degradation
        scenario).  Ignored in fleet worlds, where quality follows the
        client's cell association instead.
    effective_rate_bps:
        Override the interface's default burst goodput.
    """

    kind: str = domain(str, choices=INTERFACE_KINDS)
    quality_script: Optional[Tuple[Tuple[float, float], ...]] = None
    effective_rate_bps: Optional[float] = domain(
        float, gt=0, optional=True, default=None
    )

    def __post_init__(self) -> None:
        validate(self)
        if self.quality_script is not None:
            script = tuple((float(t), float(q)) for t, q in self.quality_script)
            object.__setattr__(self, "quality_script", script or None)

    describe = _describe


@dataclass(frozen=True)
class TrafficSpec:
    """The application source feeding one client.

    ``kind`` names an entry in the :mod:`repro.apps.traffic` source
    registry (``mp3``, ``poisson``, ``onoff``, ``video``, ``trace``);
    ``options`` are passed through to that source's constructor.
    Stochastic sources draw from the client's seeded ``traffic/<name>``
    substream, so the same spec and seed replay the same arrivals.
    """

    kind: str = domain(str, choices=traffic_kinds, default="mp3")
    bitrate_bps: float = domain(float, gt=0, default=128_000.0)
    options: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        validate(self)
        if isinstance(self.options, dict):
            object.__setattr__(self, "options", tuple(sorted(self.options.items())))

    @property
    def option_dict(self) -> Dict[str, Any]:
        return dict(self.options)

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "bitrate_bps": self.bitrate_bps,
            "options": self.option_dict,
        }


@dataclass(frozen=True)
class NodeSpec:
    """One client node: interfaces + traffic + playout contract.

    Parameters
    ----------
    name:
        Client identifier (unique within the world).
    interfaces:
        The node's WNICs, in construction order (the order is part of
        the determinism contract — it fixes event tie-breaking).
    traffic:
        The source streamed to this client.
    buffer_bytes:
        Client playout buffer size backing the QoS contract.
    prebuffer_s / weight:
        Contract knobs (playback start threshold, scheduler weight).
    prefetch_s:
        How far ahead the proxy has already fetched this stream from
        the wired side when delivery starts.
    stream_rate_bps:
        Contracted stream rate; defaults to the traffic bitrate.
    """

    name: str = domain(str, nonempty=True)
    interfaces: Tuple[InterfaceSpec, ...] = domain(nonempty=True)
    traffic: TrafficSpec = TrafficSpec()
    buffer_bytes: int = domain(int, gt=0, default=96_000)
    prebuffer_s: float = domain(float, ge=0, default=1.0)
    weight: float = domain(float, gt=0, default=1.0)
    prefetch_s: float = domain(float, ge=0, default=30.0)
    stream_rate_bps: Optional[float] = domain(
        float, gt=0, optional=True, default=None
    )

    def __post_init__(self) -> None:
        validate(self)
        object.__setattr__(self, "interfaces", tuple(self.interfaces))

    @property
    def contract_rate_bps(self) -> float:
        return (
            self.stream_rate_bps
            if self.stream_rate_bps is not None
            else self.traffic.bitrate_bps
        )

    describe = _describe


@dataclass(frozen=True)
class FleetSpec:
    """Multi-AP extension: topology, mobility and handoff.

    ``deployment`` picks the floor plan: ``"linear"`` is the canonical
    corridor of ``n_aps`` cells; ``"grid"`` is a ``grid_rows x
    grid_cols`` city block (``n_aps`` is then derived as their product
    and the arena depth follows the grid height).
    """

    n_aps: int = domain(int, ge=1, default=4)
    ap_spacing_m: float = domain(float, gt=0, default=50.0)
    arena_depth_m: float = domain(float, gt=0, default=30.0)
    deployment: str = domain(str, choices=("linear", "grid"), default="linear")
    grid_rows: int = domain(int, ge=0, default=0)
    grid_cols: int = domain(int, ge=0, default=0)
    speed_range_m_s: Tuple[float, float] = (0.5, 2.0)
    pause_range_s: Tuple[float, float] = (0.0, 5.0)
    coverage_threshold: float = domain(float, ge=0, le=1, default=0.05)
    handoff_check_interval_s: float = domain(float, gt=0, default=1.0)
    hysteresis_margin: float = domain(float, ge=0, default=0.1)
    min_dwell_s: float = domain(float, ge=0, default=5.0)
    handoff_latency_range_s: Tuple[float, float] = (0.05, 0.2)
    gauge_interval_s: float = domain(float, ge=0, default=5.0)
    load_aware_selection: bool = domain(bool, default=True)

    def __post_init__(self) -> None:
        validate(self)
        if self.deployment == "grid":
            if self.grid_rows < 1 or self.grid_cols < 1:
                raise SpecError(
                    "FleetSpec.grid_rows and grid_cols must be >= 1 for a grid "
                    f"deployment; got {self.grid_rows}x{self.grid_cols}"
                )
            object.__setattr__(self, "n_aps", self.grid_rows * self.grid_cols)
            object.__setattr__(
                self, "arena_depth_m", self.grid_rows * self.ap_spacing_m
            )
        for name, low_domain in _FLEET_RANGES.items():
            value = getattr(self, name)
            try:
                pair = tuple(value)
            except TypeError:  # not iterable
                pair = ()
            if not (
                len(pair) == 2
                and low_domain.test(pair[0])
                and _ANY_FLOAT.test(pair[1])
                and pair[0] <= pair[1]
            ):
                low = "0 < low" if low_domain.lo_open else "0 <= low"
                raise SpecError(
                    f"FleetSpec.{name} must be a finite (low, high) pair with "
                    f"{low} <= high; got {value!r}"
                )
            object.__setattr__(self, name, pair)

    describe = _describe


@dataclass
class WorldSpec:
    """A whole runnable world, declaratively.

    Parameters
    ----------
    delivery:
        How bytes reach clients: ``"hotspot"`` (the paper's scheduled
        bursts under a server resource manager), ``"unscheduled"``
        (Figure-2 baseline, WNIC always listening), ``"psm"``
        (standard 802.11 PSM on the packet-level MAC), ``"fleet"``
        (many hotspot cells with roaming, requires ``fleet``),
        ``"pamas"`` (battery-aware independent sleeping, no traffic) or
        ``"ecmac"`` (EC-MAC scheduled superframes).
    duration_s / seed:
        Run length and master random seed.
    clients:
        The node population.
    label:
        Result label; ``None`` lets the delivery mode pick its default.
    scheduler / epoch_s / min_burst_bytes / utilisation_cap /
    interface_policy:
        Server resource-manager knobs (hotspot and fleet cells).
    platform:
        Host device profile (defaults to the paper's iPAQ 3970).
    fault_plan:
        A :class:`~repro.faults.FaultPlan`, or a callable
        ``fn(streams) -> FaultPlan`` resolved at build time against the
        world's seeded substreams (so plans stay insensitive to foreign
        draws).
    fleet:
        The :class:`FleetSpec` for ``delivery="fleet"``.
    power_policy:
        One of :data:`POWER_POLICIES`, for ``delivery="psm"``
        only (any other delivery raises :class:`SpecError`).  ``"unap"``
        builds the μNap world of uplink senders that nap through
        overheard reservations, ``"cam"`` the same world never napping;
        ``None`` or ``"psm"`` keeps standard 802.11 PSM stations.
    """

    delivery: str = domain(str, choices=DELIVERY_MODES, default="hotspot")
    duration_s: float = domain(float, gt=0, default=60.0)
    seed: int = domain(int, default=0)
    clients: Tuple[NodeSpec, ...] = ()
    label: Optional[str] = domain(str, optional=True, default=None)
    scheduler: Union[str, Any] = "edf"
    epoch_s: float = domain(float, gt=0, default=0.25)
    min_burst_bytes: int = domain(int, gt=0, default=20_000)
    utilisation_cap: float = domain(float, gt=0, le=1, default=0.9)
    interface_policy: Optional[Any] = None
    platform: Optional[Any] = None
    fault_plan: Optional[Union[Any, Callable[..., Any]]] = None
    fleet: Optional[FleetSpec] = None
    power_policy: Optional[str] = domain(
        str, choices=POWER_POLICIES, optional=True, default=None
    )
    #: Free-form metadata carried through to ``ScenarioResult.extras``
    #: untouched (must stay JSON-serialisable and deterministic); the
    #: builder's own knobs among them are checked against ``_EXTRAS``.
    extras: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate(self)
        for key, value in self.extras.items():
            rule = _EXTRAS.get(key)
            if rule is not None:
                rule.check(f"WorldSpec.extras[{key!r}]", value)
        if self.power_policy is not None and self.delivery != "psm":
            raise SpecError(
                "WorldSpec.power_policy applies only to delivery='psm'; "
                f"got {self.power_policy!r} with delivery={self.delivery!r}"
            )
        if self.delivery == "fleet" and self.fleet is None:
            self.fleet = FleetSpec()
        self.clients = tuple(self.clients)
        names = [node.name for node in self.clients]
        if len(set(names)) != len(names):
            repeated = next(n for i, n in enumerate(names) if n in names[:i])
            raise SpecError(
                f"WorldSpec.clients must have unique names; {repeated!r} repeats"
            )

    def describe(self) -> Dict[str, Any]:
        """JSON-safe view of the spec (for docs, CLIs and artifacts)."""
        scheduler = self.scheduler
        if not isinstance(scheduler, str):
            scheduler = getattr(scheduler, "name", str(scheduler))
        return {
            "delivery": self.delivery,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "label": self.label,
            "scheduler": scheduler,
            "epoch_s": self.epoch_s,
            "min_burst_bytes": self.min_burst_bytes,
            "utilisation_cap": self.utilisation_cap,
            "clients": [node.describe() for node in self.clients],
            "fleet": self.fleet.describe() if self.fleet else None,
            "power_policy": self.power_policy,
        }


_COUNT = Domain(int, ge=1)
_NODE_NAME = next(f for f in fields(NodeSpec) if f.name == "name").metadata["domain"]


def uniform_nodes(
    count: int,
    interfaces: Sequence[InterfaceSpec],
    traffic: TrafficSpec,
    name_format: str = "client{index}",
    **node_kwargs: Any,
) -> Tuple[NodeSpec, ...]:
    """A homogeneous population: ``count`` identical nodes.

    The common case for paper-style experiments — every client streams
    the same workload over the same interface set.  The first node is
    validated whole; the others differ from it only in ``name``, so they
    copy it and check just their names.
    """
    _COUNT.check("uniform_nodes.count", count)
    first = NodeSpec(
        name=name_format.format(index=0),
        interfaces=tuple(interfaces),
        traffic=traffic,
        **node_kwargs,
    )
    nodes = [first]
    for index in range(1, count):
        name = name_format.format(index=index)
        _NODE_NAME.check("NodeSpec.name", name)
        node = object.__new__(NodeSpec)
        vars(node).update(vars(first), name=name)  # frozen: no __setattr__
        nodes.append(node)
    return tuple(nodes)
