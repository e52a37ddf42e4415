"""WorldBuilder: assemble a runnable world from a :class:`WorldSpec`.

One builder replaces the hand-wired assembly that every scenario runner
used to copy: Simulator + observability attachment, seeded
:class:`~repro.sim.RandomStreams`, device platform, per-client
interfaces and contracts, the delivery substrate (Hotspot server, bare
radios, a multi-cell fleet, PAMAS nodes, or a packet-level 802.11 PSM,
μNap or EC-MAC MAC), traffic pumps, fault injector, and the teardown
that collects :class:`ClientOutcome`\\ s into a :class:`ScenarioResult`.

Every mode shares one managed-client path (:func:`build_managed_client`),
one station path (:func:`_assemble_stations`) and one outcome path
(:func:`_client_outcome`, :func:`_node_outcomes`, :func:`_result`).

Determinism contract: building twice from the same spec and seed yields
byte-identical ``summary_record()`` output.  Object construction order
is part of that contract (simultaneous events tie-break on scheduling
order), so each assembly path builds its objects in spec order, in a
fixed sequence per node — the golden-equivalence tests pin it.

Usage::

    world = WorldBuilder(spec).build(obs=obs)
    result = world.run()
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.apps.traffic import ArrivalFeed, TrafficSource, build_source
from repro.build.spec import InterfaceSpec, NodeSpec, WorldSpec
from repro.core.client import HotspotClient
from repro.core.interfaces import (
    ManagedInterface,
    bluetooth_interface,
    gprs_interface,
    wlan_interface,
)
from repro.core.outcome import (
    MP3_DECODE_BUSY_FRACTION,
    ClientOutcome,
    ScenarioResult,
    make_stream_contract,
)
from repro.core.server import ClientSession, HotspotServer
from repro.devices import ipaq_3970, wlan_cf_card
from repro.faults import FaultInjector, FaultPlan
from repro.metrics.energy import ClientEnergyReport, EnergyBreakdown
from repro.metrics.qos import PlayoutBuffer, QosSummary
from repro.phy.channel import ScriptedLinkQuality
from repro.phy.radio import Radio
from repro.sim import RandomStreams, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.psm import PsmStation

#: ``fn(node, interface_spec) -> quality signal or None`` — how a world
#: flavour wires link quality into the interfaces it builds.
QualityResolver = Callable[[NodeSpec, InterfaceSpec], Optional[Callable[[float], float]]]

_INTERFACE_FACTORIES = {
    "wlan": wlan_interface,
    "bluetooth": bluetooth_interface,
    "gprs": gprs_interface,
}


class World:
    """A fully assembled, not-yet-run simulation world.

    Holds every layer the builder wired together; :meth:`run` drives the
    simulation to ``spec.duration_s`` and collects the result.
    """

    def __init__(
        self,
        spec: WorldSpec,
        sim: Simulator,
        streams: RandomStreams,
        platform,
    ) -> None:
        self.spec = spec
        self.sim = sim
        self.streams = streams
        self.platform = platform
        self.clients: List[HotspotClient] = []
        self.radios: Dict[str, Radio] = {}
        self.server: Optional[HotspotServer] = None
        self.injector: Optional[FaultInjector] = None
        self.fault_plan: Optional[FaultPlan] = None
        # Fleet layers (delivery="fleet").
        self.topology = None
        self.arena = None
        self.association = None
        self.fleet = None
        self.handoff = None
        # Packet-level MAC layers (delivery="psm" or "ecmac").
        self.medium = None
        self.access_point = None
        self.stations: List["PsmStation"] = []
        self.playouts: List[PlayoutBuffer] = []
        self.byte_counts: List[int] = []
        self._mode: Optional[_DeliveryMode] = None
        self._ran = False

    def run(self) -> ScenarioResult:
        """Start the world's actors, simulate, and collect the result.

        The result carries the kernel's own workload figures
        (``sim_events``, ``wall_time_s``) so stores and benchmarks read
        throughput off the record instead of re-measuring it.
        """
        if self._ran:
            raise RuntimeError("a World can only run once; build a fresh one")
        self._ran = True
        started = perf_counter()
        self._mode.start(self)
        self.sim.run(until=self.spec.duration_s)
        result = self._mode.collect(self)
        result.sim_events = self.sim.events_scheduled
        result.wall_time_s = perf_counter() - started
        return result


class WorldBuilder:
    """Assemble a :class:`World` from a :class:`WorldSpec`."""

    def __init__(self, spec: WorldSpec) -> None:
        self.spec = spec

    def build(self, obs=None) -> World:
        """Construct the full world; ``obs`` attaches before any process.

        ``obs`` is anything with an ``attach(sim)`` method (e.g.
        :class:`repro.obs.ObsSession`), attached to the fresh simulator
        before any actor is created so traces cover the whole run.
        """
        spec = self.spec
        sim = Simulator()
        if obs is not None:
            obs.attach(sim)
        streams = RandomStreams(seed=spec.seed)
        platform = spec.platform or ipaq_3970()
        world = World(spec, sim, streams, platform)
        mode = _MODES[spec.delivery]()
        world._mode = mode
        mode.assemble(world)
        recorder = getattr(obs, "timeseries", None)
        if recorder is not None:
            register_timeseries_probes(world, recorder)
        return world

    def run(self, obs=None) -> ScenarioResult:
        """``build().run()`` in one call."""
        return self.build(obs=obs).run()


# -- timeseries probes ---------------------------------------------------------


def register_timeseries_probes(world: World, recorder) -> None:
    """Register scenario-shaped probes on a :class:`TimeseriesRecorder`.

    Columns are registered in deterministic order (radios in insertion
    order, cells sorted by name) so a seeded run's sample stream is
    byte-identical across processes.  Probes read settled simulator
    state only — they never schedule events or advance anything.
    """
    sim = world.sim
    for name, radio in world.radios.items():
        recorder.probe(f"energy_j.{name}", _energy_probe(sim, radio))
        recorder.probe(f"sleep_frac.{name}", _sleep_probe(sim, radio))
    if world.server is not None:
        sessions = world.server.sessions
        recorder.probe(
            "backlog_bytes",
            lambda s=sessions: float(
                sum(session.backlog_bytes for session in s.values())
            ),
        )
    if world.fleet is not None:
        fleet = world.fleet
        for cell_name in sorted(fleet.cells):
            recorder.probe(
                f"cell_load.{cell_name}",
                lambda f=fleet, c=cell_name: float(
                    f.load_fraction(f.cells[c])
                ),
            )
        names = [client.name for client in world.clients]
        recorder.probe(
            "backlog_bytes",
            lambda f=fleet, ns=names: float(
                sum(f.session_of(n).backlog_bytes for n in ns)
            ),
        )


def _energy_probe(sim, radio):
    return lambda: radio.energy_j(sim.now)


def _sleep_probe(sim, radio):
    """Fraction of elapsed time the radio spent in non-communicating
    (sleep/park/doze/off) states — the paper's sleep-occupancy axis."""
    sleep_states = [
        name
        for name, state in radio.model.states.items()
        if not state.can_communicate
    ]

    def sample() -> float:
        elapsed = sim.now
        if elapsed <= 0.0:
            return 0.0
        return sum(radio.time_in_state(s) for s in sleep_states) / elapsed

    return sample


# -- shared per-client assembly ------------------------------------------------


def _make_interface(
    world: World, node: NodeSpec, ispec: InterfaceSpec, quality
) -> ManagedInterface:
    factory = _INTERFACE_FACTORIES[ispec.kind]  # the spec checked the kind
    kwargs = {"name": f"{node.name}/{ispec.kind}", "quality": quality}
    if ispec.effective_rate_bps is not None:
        kwargs["effective_rate_bps"] = ispec.effective_rate_bps
    return factory(world.sim, **kwargs)


def scripted_quality(node: NodeSpec, ispec: InterfaceSpec):
    """Default quality resolver: honour the spec's quality script."""
    if ispec.quality_script:
        return ScriptedLinkQuality(ispec.quality_script).quality
    return None


def build_managed_client(
    world: World,
    node: NodeSpec,
    quality_for: QualityResolver = scripted_quality,
) -> HotspotClient:
    """Construct one client stack: interfaces → contract → client.

    This is the single per-client assembly path shared by every managed
    delivery flavour (single-AP hotspot, unscheduled baseline, fleet
    cells) — interface construction order follows the spec, which fixes
    event tie-breaking and therefore the determinism contract.
    """
    available: Dict[str, ManagedInterface] = {}
    for ispec in node.interfaces:
        available[ispec.kind] = _make_interface(
            world, node, ispec, quality_for(node, ispec)
        )
    contract = make_stream_contract(
        node.name,
        node.contract_rate_bps,
        node.buffer_bytes,
        prebuffer_s=node.prebuffer_s,
        weight=node.weight,
    )
    return HotspotClient(
        world.sim, node.name, contract, available, platform=world.platform
    )


def register_radios(world: World, client: HotspotClient) -> None:
    """Expose the client's radios for timeline rendering."""
    for interface in client.interfaces.values():
        world.radios[interface.radio.name] = interface.radio


def node_source(world: World, node: NodeSpec) -> TrafficSource:
    """The node's traffic source, drawing on its ``traffic/<name>`` substream."""
    return build_source(
        node.traffic.kind,
        bitrate_bps=node.traffic.bitrate_bps,
        rng=world.streams.stream(f"traffic/{node.name}"),
        options=node.traffic.option_dict,
    )


def start_traffic(world: World, node: NodeSpec, sink) -> None:
    """Build the node's source and pump it into ``sink`` until the end."""
    node_source(world, node).start(world.sim, sink, until_s=world.spec.duration_s)


def feed_traffic(world: World, node: NodeSpec, session: ClientSession) -> None:
    """Build the node's source and credit it to ``session``'s backlog
    whenever the backlog is read (see :class:`ArrivalFeed`)."""
    session.feed = ArrivalFeed(
        node_source(world, node), world.sim, until_s=world.spec.duration_s
    )


def _resolve_fault_plan(world: World) -> Optional[FaultPlan]:
    plan = world.spec.fault_plan
    if callable(plan) and not isinstance(plan, FaultPlan):
        plan = plan(world.streams)
    return plan


def fleet_label(spec: WorldSpec) -> str:
    """A fleet run's record label: the spec's own, else one naming the
    scheduler (shared by the fleet delivery mode and the shard merge)."""
    scheduler = spec.scheduler
    name = scheduler if isinstance(scheduler, str) else scheduler.name
    return spec.label or f"fleet-hotspot[{name}]"


def fleet_floor_plan(fleet_spec):
    """The deployment's topology and arena rectangle, from the spec alone.

    Shared by :func:`assemble_fleet` and the shard runner's cell
    partition (:mod:`repro.shard`), which must agree byte-for-byte on
    site placement for cell ownership to be a pure function of the spec.
    """
    from repro.net.topology import grid_deployment, linear_deployment

    if fleet_spec.deployment == "grid":
        topology = grid_deployment(
            fleet_spec.grid_rows,
            fleet_spec.grid_cols,
            spacing_m=fleet_spec.ap_spacing_m,
        )
        arena = (
            (0.0, 0.0),
            (
                fleet_spec.grid_cols * fleet_spec.ap_spacing_m,
                fleet_spec.grid_rows * fleet_spec.ap_spacing_m,
            ),
        )
    else:
        topology = linear_deployment(
            fleet_spec.n_aps,
            spacing_m=fleet_spec.ap_spacing_m,
            y_m=fleet_spec.arena_depth_m / 2.0,
        )
        arena = (
            (0.0, 0.0),
            (fleet_spec.n_aps * fleet_spec.ap_spacing_m, fleet_spec.arena_depth_m),
        )
    return topology, arena


def assemble_fleet(world: World, owned_sites: Optional[List[str]] = None) -> None:
    """Wire a fleet world's roaming layers onto ``world``.

    Sets ``topology`` and ``arena`` (:func:`fleet_floor_plan`), the
    association registry, the :class:`~repro.net.fleet.FleetCoordinator`
    and the :class:`~repro.net.handoff.HandoffController`.  The fleet
    delivery mode owns every site; a shard's
    :class:`~repro.shard.world.CellWorld` owns one, and the shard
    planner runs a throwaway copy to replay admission steering.
    """
    from repro.net.association import AssociationManager
    from repro.net.fleet import FleetCoordinator
    from repro.net.handoff import HandoffController

    spec = world.spec
    fleet_spec = spec.fleet
    sim = world.sim
    world.topology, world.arena = fleet_floor_plan(fleet_spec)
    world.association = AssociationManager(sim, world.topology)
    world.fleet = FleetCoordinator(
        sim,
        world.topology,
        world.association,
        coverage_threshold=fleet_spec.coverage_threshold,
        gauge_interval_s=fleet_spec.gauge_interval_s,
        owned_sites=owned_sites,
        scheduler=spec.scheduler,
        epoch_s=spec.epoch_s,
        min_burst_bytes=spec.min_burst_bytes,
        utilisation_cap=spec.utilisation_cap,
        load_aware_selection=fleet_spec.load_aware_selection,
    )
    world.handoff = HandoffController(
        sim,
        world.fleet,
        world.streams,
        check_interval_s=fleet_spec.handoff_check_interval_s,
        hysteresis_margin=fleet_spec.hysteresis_margin,
        min_dwell_s=fleet_spec.min_dwell_s,
        latency_range_s=fleet_spec.handoff_latency_range_s,
    )


def roaming_walker(world: World, name: str):
    """Client ``name``'s random-waypoint walk over the fleet arena.

    The walk draws lazily from the ``mobility/<name>`` substream, so a
    world must build one per client and keep it.
    """
    from repro.phy.mobility import RandomWaypoint

    fleet_spec = world.spec.fleet
    return RandomWaypoint(
        world.streams,
        name,
        area=world.arena,
        speed_range_m_s=fleet_spec.speed_range_m_s,
        pause_range_s=fleet_spec.pause_range_s,
    )


def build_roaming_client(world: World, node: NodeSpec, mobility) -> HotspotClient:
    """A managed client whose link quality follows its *current* cell.

    Re-pointing the association (admission or handoff) instantly
    flips the signal to the new site's link budget — the
    interface-selection policy inside the cell never knows roaming
    exists.
    """

    def quality_for(node: NodeSpec, ispec: InterfaceSpec):
        def quality(time_s: float) -> float:
            site = world.association.site_of(node.name)
            if site is None:
                return 0.0
            return world.topology.quality(
                site, ispec.kind, mobility.position(time_s)
            )

        return quality

    return build_managed_client(world, node, quality_for=quality_for)


def attach_roaming_client(
    world: World, node: NodeSpec, client: HotspotClient, mobility
) -> None:
    """Finish a client the fleet just gave a cell: follow its walk,
    expose its radios, queue its proxy prefetch and feed its stream."""
    world.handoff.track(node.name, mobility)
    register_radios(world, client)
    if node.prefetch_s > 0:
        world.fleet.ingest(
            node.name,
            int(node.prefetch_s * node.contract_rate_bps / 8.0),
        )
    feed_traffic(world, node, world.fleet.session_of(node.name))


# -- shared station and outcome paths ------------------------------------------


def _deliver(world: World, index: int, nbytes: int) -> None:
    """Credit ``nbytes`` that reached node ``index`` to its count and playout."""
    world.byte_counts[index] += nbytes
    world.playouts[index].deliver(world.sim.now, nbytes)


def _assemble_stations(world: World, card, make_station, sink) -> None:
    """Per node, in spec order: a ``card()`` radio, a :class:`PlayoutBuffer`,
    the station ``make_station(index, node, radio)`` and a traffic pump
    into ``sink(node, station)`` — the psm, μNap and EC-MAC station path."""
    sim = world.sim
    world.byte_counts = [0] * len(world.spec.clients)
    for index, node in enumerate(world.spec.clients):
        radio = Radio(sim, card(), name=f"{node.name}/wlan")
        world.playouts.append(
            PlayoutBuffer(
                drain_rate_bps=node.contract_rate_bps,
                prebuffer_s=node.prebuffer_s,
            )
        )
        world.radios[radio.name] = radio
        station = make_station(index, node, radio)
        world.stations.append(station)
        start_traffic(world, node, sink(node, station))


def _client_outcome(client: HotspotClient, session=None) -> ClientOutcome:
    """A managed client's outcome (hotspot, unscheduled, fleet);
    ``session`` is its server-side session, if it has one."""
    return ClientOutcome(
        name=client.name,
        qos=client.finish(),
        energy=client.energy_report(MP3_DECODE_BUSY_FRACTION),
        wnic_average_power_w=client.wnic_average_power_w(),
        bursts=client.bursts_received,
        bytes_received=client.bytes_received,
        switchovers=session.switchovers if session is not None else 0,
        interface_log=list(session.interface_log) if session is not None else [],
    )


def _node_outcomes(
    world: World, busy_fraction: float, bursts_attr: Optional[str] = None
) -> List[ClientOutcome]:
    """One outcome per single-radio node (psm, pamas, ecmac), in spec order.

    QoS comes from the node's playout buffer, or is an untested
    (maintained) contract in a world without playouts; energy is its one
    radio's plus the platform's at ``busy_fraction``; ``bursts`` reads its
    station's ``bursts_attr`` counter (0 where there is none).
    """
    duration = world.spec.duration_s
    outcomes = []
    for index, radio in enumerate(world.radios.values()):
        name = world.spec.clients[index].name
        bursts = 0
        if bursts_attr is not None:
            bursts = getattr(world.stations[index], bursts_attr, 0)
        outcomes.append(
            ClientOutcome(
                name=name,
                qos=(
                    world.playouts[index].finish(duration)
                    if world.playouts
                    else QosSummary()
                ),
                energy=ClientEnergyReport(
                    client=name,
                    radios=[EnergyBreakdown.of(radio)],
                    platform=world.platform,
                    platform_busy_fraction=busy_fraction,
                    elapsed_s=duration,
                ),
                wnic_average_power_w=radio.average_power_w(),
                bursts=bursts,
                bytes_received=world.byte_counts[index] if world.byte_counts else 0,
            )
        )
    return outcomes


def _result(
    world: World,
    default_label: str,
    outcomes: List[ClientOutcome],
    extras: Dict[str, object],
) -> ScenarioResult:
    """Every mode's :class:`ScenarioResult`; ``extras`` is already merged
    with the spec's in the mode's own key order."""
    return ScenarioResult(
        label=world.spec.label or default_label,
        duration_s=world.spec.duration_s,
        clients=outcomes,
        radios=world.radios,
        server=world.server,
        extras=extras,
    )


# -- delivery modes ------------------------------------------------------------


class _DeliveryMode:
    """One way bytes reach clients; assembles, starts and collects."""

    def assemble(self, world: World) -> None:
        raise NotImplementedError

    def start(self, world: World) -> None:
        pass

    def collect(self, world: World) -> ScenarioResult:
        raise NotImplementedError


class _HotspotMode(_DeliveryMode):
    """The paper's system: scheduled bursts under a server resource
    manager, clients parking their WNICs between bursts."""

    def assemble(self, world: World) -> None:
        spec = world.spec
        world.server = HotspotServer(
            world.sim,
            scheduler=spec.scheduler,
            epoch_s=spec.epoch_s,
            min_burst_bytes=spec.min_burst_bytes,
            interface_policy=spec.interface_policy,
            utilisation_cap=spec.utilisation_cap,
        )
        world.fault_plan = _resolve_fault_plan(world)
        for node in spec.clients:
            client = build_managed_client(world, node)
            world.server.register(client)
            world.clients.append(client)
            register_radios(world, client)
            if node.prefetch_s > 0:
                # The proxy fetched this much stream from the wired side
                # before scheduled delivery begins.
                world.server.ingest(
                    node.name,
                    int(node.prefetch_s * node.contract_rate_bps / 8.0),
                )
            feed_traffic(world, node, world.server.sessions[node.name])

    def start(self, world: World) -> None:
        world.server.start()
        plan = world.fault_plan
        if plan is not None and len(plan):
            world.injector = FaultInjector(world.sim, plan)
            for client in world.clients:
                world.injector.bind_client(client)
            world.injector.bind_server(world.server)
            world.injector.start()

    def collect(self, world: World) -> ScenarioResult:
        sessions = world.server.sessions
        outcomes = [
            _client_outcome(client, sessions[client.name]) for client in world.clients
        ]
        extras: Dict[str, object] = {}
        if world.injector is not None:
            managed = [
                interface
                for client in world.clients
                for interface in client.interfaces.values()
            ]
            extras = {
                "faults_injected": world.injector.injected,
                "radio_outages": sum(i.outages for i in managed),
                "bursts_failed": sum(s.bursts_failed for s in sessions.values()),
            }
        return _result(
            world,
            f"hotspot[{world.server.scheduler.name}]",
            outcomes,
            {**extras, **world.spec.extras},
        )


class _UnscheduledMode(_DeliveryMode):
    """Figure-2 baseline: no power management; the WNIC sits in its
    listening state the whole run and frames arrive at stream cadence."""

    def assemble(self, world: World) -> None:
        for node in world.spec.clients:
            client = build_managed_client(world, node)
            world.clients.append(client)
            register_radios(world, client)
            managed = client.interfaces[node.interfaces[0].kind]
            start_traffic(world, node, self._sink(world, client, managed))

    def _sink(self, world: World, client: HotspotClient, managed: ManagedInterface):
        sim = world.sim
        # A frame costs the receive-vs-listen power delta for its airtime:
        # rx/idle on the WLAN card, active/connected on Bluetooth.
        receive, listen = (
            ("rx", "idle")
            if managed.radio.model.name == "wlan-cf"
            else ("active", "connected")
        )

        def deliver_frame(nbytes: int, kind: str, c=client, m=managed):
            c.playout.deliver(sim.now, nbytes)
            c.bytes_received += nbytes
            airtime = nbytes * 8.0 / m.effective_rate_bps
            delta = m.radio.model.power(receive) - m.radio.model.power(listen)
            m.radio.add_energy_impulse(delta * airtime)

        return deliver_frame

    def collect(self, world: World) -> ScenarioResult:
        outcomes = [_client_outcome(client) for client in world.clients]
        return _result(world, "unscheduled", outcomes, dict(world.spec.extras))


class _PsmMode(_DeliveryMode):
    """802.11 on the packet-level MAC.  Downlink (the default): dozing
    :class:`PsmStation`\\ s fetch AP-buffered frames via beacon/TIM/PS-Poll.
    Uplink (``psm_direction`` extra): CAM :class:`DcfStation`\\ s push to
    the AP.  ``power_policy`` ``"unap"``/``"cam"`` is the μNap world: uplink
    senders with the fast-doze radio on a :class:`SpatialMedium`, where
    every station overhears every frame and naps through others'
    reservations (``"cam"``: the same world, never napping)."""

    def assemble(self, world: World) -> None:
        from repro.devices.profiles import unap_wlan_card
        from repro.mac import (
            AccessPoint,
            DcfConfig,
            DcfStation,
            Medium,
            MicroNapPolicy,
            PsmConfig,
            PsmStation,
            SpatialMedium,
        )

        sim = world.sim
        spec = world.spec
        extras = spec.extras
        unap = spec.power_policy in ("unap", "cam")
        uplink = unap or extras.get("psm_direction") == "uplink"
        world.medium = SpatialMedium(sim) if unap else Medium(sim)
        if uplink:
            index_of = {n.name: i for i, n in enumerate(spec.clients)}

            def ap_receive(frame):
                i = index_of.get(frame.source)
                if i is not None:
                    _deliver(world, i, frame.payload_bytes)

            rts_threshold = extras.get("rts_threshold_bytes")
            nap = spec.power_policy == "unap"

            def make_station(index, node, radio):
                return DcfStation(
                    sim,
                    world.medium,
                    node.name,
                    rng=world.streams.stream(node.name),
                    config=DcfConfig(rts_threshold_bytes=rts_threshold),
                    radio=radio,
                    power_policy=MicroNapPolicy() if nap else None,
                )

            def sink(node, station):
                return lambda nbytes, kind: station.send("ap", nbytes, notify=False)

        else:
            ap_receive = None
            psm = PsmConfig(listen_interval=int(extras.get("psm_listen_interval", 1)))

            def make_station(index, node, radio):
                return PsmStation(
                    sim,
                    world.medium,
                    node.name,
                    world.access_point,
                    radio,
                    rng=world.streams.stream(node.name),
                    psm=psm,
                    on_receive=lambda frame: _deliver(world, index, frame.payload_bytes),
                )

            def sink(node, station):
                ap = world.access_point
                return lambda nbytes, kind, n=node.name: ap.send_data(
                    n, nbytes, notify=False
                )

        world.access_point = AccessPoint(
            sim,
            world.medium,
            "ap",
            rng=world.streams.stream("ap"),
            on_receive=ap_receive,
        )
        card = unap_wlan_card if unap else wlan_cf_card
        _assemble_stations(world, card, make_station, sink)

    def collect(self, world: World) -> ScenarioResult:
        extras: Dict[str, object] = dict(world.spec.extras)
        policies = [
            station.power_policy
            for station in world.stations
            if station.power_policy is not None
        ]
        if policies:
            # μNap evidence: nap counts plus the sub-10ms doze dwells
            # only micro-sleeping can produce (PSM dozes at ~100 ms).
            extras["naps"] = sum(policy.naps for policy in policies)
            extras["napped_s"] = sum(policy.napped_s for policy in policies)
            extras["micro_doze_dwells"] = sum(
                sum(radio.dwell_histogram("doze")[:3])
                for radio in world.radios.values()
            )
        policy = world.spec.power_policy
        return _result(
            world,
            f"unap-hotspot[{policy}]" if policy in ("unap", "cam") else "802.11-psm",
            _node_outcomes(world, MP3_DECODE_BUSY_FRACTION, "polls_sent"),
            extras,
        )


class _FleetMode(_DeliveryMode):
    """Many hotspot cells with roaming clients: per-client assembly is
    the same managed stack as single-AP, but admission steers to the
    least-loaded covering cell and a handoff controller roams walkers
    between cells as they move."""

    def assemble(self, world: World) -> None:
        assemble_fleet(world)
        for node in world.spec.clients:
            mobility = roaming_walker(world, node.name)
            client = build_roaming_client(world, node, mobility)
            world.fleet.admit(client, mobility.position(0.0))
            world.clients.append(client)
            attach_roaming_client(world, node, client, mobility)

    def start(self, world: World) -> None:
        world.fleet.start()
        world.handoff.start()

    def collect(self, world: World) -> ScenarioResult:
        outcomes = [
            _client_outcome(client, world.fleet.session_of(client.name))
            for client in world.clients
        ]
        extras: Dict[str, object] = {
            "n_aps": world.spec.fleet.n_aps,
            "handoffs": world.handoff.handoffs,
            "handoff_suspensions": world.handoff.suspensions,
            "handoffs_declined": world.handoff.declined,
            "association_churn": world.association.churn,
            "admission_rejections": world.fleet.rejected,
            "cells": world.fleet.cell_summary(),
            "handoff_timeline": world.handoff.timeline_records(),
        }
        return _result(
            world, fleet_label(world.spec), outcomes, {**extras, **world.spec.extras}
        )


class _PamasMode(_DeliveryMode):
    """PAMAS-style battery-aware independent sleeping: every node runs
    its own awake/sleep cycle whose sleep fraction grows as its battery
    drains.  There is no traffic and no coordinator — the outcome is the
    availability-versus-lifetime trade, not a QoS contract."""

    def assemble(self, world: World) -> None:
        from repro.mac import PamasNode, linear_sleep_policy
        from repro.phy.battery import Battery

        sim = world.sim
        extras = world.spec.extras
        capacity_j = float(extras.get("pamas_capacity_j", 50.0))
        cycle_s = float(extras.get("pamas_cycle_s", 1.0))
        threshold = float(extras.get("pamas_threshold", 0.8))
        policy = linear_sleep_policy(threshold=threshold)
        self.nodes: List[PamasNode] = []
        for node in world.spec.clients:
            radio = Radio(sim, wlan_cf_card(), name=f"{node.name}/wlan")
            world.radios[radio.name] = radio
            battery = Battery(capacity_j)
            self.nodes.append(
                PamasNode(sim, radio, battery, policy=policy, cycle_s=cycle_s)
            )

    def collect(self, world: World) -> ScenarioResult:
        nodes = self.nodes
        extras: Dict[str, object] = {
            "nodes_died": sum(node.stats.died_at_s is not None for node in nodes),
            "mean_availability": (
                sum(node.stats.availability for node in nodes) / len(nodes)
                if nodes
                else 0.0
            ),
        }
        return _result(
            world,
            "pamas",
            _node_outcomes(world, 0.0),
            {**extras, **world.spec.extras},
        )


class _EcMacMode(_DeliveryMode):
    """EC-MAC: a coordinator broadcasts per-superframe transmission
    schedules; stations doze outside their exact windows.  Downlink
    traffic flows through the coordinator's scheduled windows into each
    client's playout buffer."""

    def assemble(self, world: World) -> None:
        from repro.mac import EcMacConfig, EcMacCoordinator, EcMacStation, Medium

        sim = world.sim
        superframe_s = float(world.spec.extras.get("ecmac_superframe_s", 0.050))
        world.medium = Medium(sim)
        coordinator = self.coordinator = EcMacCoordinator(
            sim, world.medium, "ecmac-ap", config=EcMacConfig(superframe_s=superframe_s)
        )

        def make_station(index, node, radio):
            return EcMacStation(
                sim,
                world.medium,
                node.name,
                coordinator,
                radio,
                on_receive=lambda frame: _deliver(world, index, frame.payload_bytes),
            )

        def sink(node, station):
            return lambda nbytes, kind, n=node.name: coordinator.send_data(n, nbytes)

        _assemble_stations(world, wlan_cf_card, make_station, sink)

    def collect(self, world: World) -> ScenarioResult:
        extras: Dict[str, object] = {
            "superframes": self.coordinator.superframes,
            "frames_scheduled": self.coordinator.frames_scheduled,
            "ecmac_retransmissions": self.coordinator.retransmissions,
        }
        return _result(
            world,
            "ec-mac",
            _node_outcomes(world, MP3_DECODE_BUSY_FRACTION, "schedules_heard"),
            {**extras, **world.spec.extras},
        )


_MODES = {
    "hotspot": _HotspotMode,
    "unscheduled": _UnscheduledMode,
    "psm": _PsmMode,
    "fleet": _FleetMode,
    "pamas": _PamasMode,
    "ecmac": _EcMacMode,
}
