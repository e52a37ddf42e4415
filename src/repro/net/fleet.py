"""The fleet coordinator: one Hotspot resource manager per cell.

Scaling the paper's single-server Hotspot out means running one
:class:`~repro.core.server.HotspotServer` per
:class:`~repro.net.topology.AccessPointSite` and adding the decisions a
single cell never needed:

- **admission steering** — a new client is offered to every cell that
  covers its position; among those whose ``can_admit`` bandwidth check
  passes, the *least-loaded* one wins (quality breaks ties, then the
  site name, so steering is deterministic).  When the best-covering cell
  is at its utilisation cap the client lands on the next one — overflow
  between cells instead of refusal.
- **ingest routing** — stream traffic addresses a *client*, not a cell.
  The coordinator keeps each client's :class:`~repro.core.server.
  ClientSession` object (shared with whichever server currently holds
  it), so proxy bytes keep accruing even in the window mid-handoff when
  the session is attached to no server at all.
- **fleet-wide accounting** — per-cell load/bursts/bytes summaries and
  periodic per-cell utilisation gauges on the ``net`` trace layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.interfaces import (
    BLUETOOTH_EFFECTIVE_RATE_BPS,
    GPRS_EFFECTIVE_RATE_BPS,
    WLAN_EFFECTIVE_RATE_BPS,
)
from repro.core.server import AdmissionError, ClientSession, HotspotServer
from repro.net.association import AssociationManager
from repro.net.topology import AccessPointSite, Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import HotspotClient
    from repro.sim.core import Simulator

#: Canonical effective channel rates per radio kind, for load fractions.
DEFAULT_CAPACITY_BPS: Dict[str, float] = {
    "wlan": WLAN_EFFECTIVE_RATE_BPS,
    "bluetooth": BLUETOOTH_EFFECTIVE_RATE_BPS,
    "gprs": GPRS_EFFECTIVE_RATE_BPS,
}


class Cell:
    """One site plus the resource manager scheduling its clients."""

    def __init__(self, site: AccessPointSite, server: HotspotServer) -> None:
        self.site = site
        self.server = server
        #: Clients adopted through handoff (vs fresh admissions).
        self.adoptions = 0

    @property
    def name(self) -> str:
        return self.site.name

    def __repr__(self) -> str:
        return f"<Cell {self.name!r} clients={len(self.server.sessions)}>"


class FleetCoordinator:
    """Admission steering and accounting across a topology of cells.

    Parameters
    ----------
    sim, topology, association:
        The simulation, the deployment, and the attachment registry.
    capacity_bps:
        Effective channel rate per radio kind for load fractions;
        defaults to the calibrated rates in :mod:`repro.core.interfaces`.
    coverage_threshold:
        Minimum cell quality for a site to be an admission candidate.
    gauge_interval_s:
        Period of the per-cell utilisation gauge emission (0 disables).
    owned_sites:
        When given, only these sites get a local :class:`Cell`; the rest
        of the topology stays visible as pure data (coverage, steering
        targets) but has no server here.  This is how :mod:`repro.shard`
        decomposes a fleet into per-cell worlds: each world owns exactly
        its own cells, and a roam towards a cell it does not own becomes
        a cross-shard departure instead of a local adoption.
    server_kwargs:
        Passed to every cell's :class:`HotspotServer` (scheduler,
        epoch_s, min_burst_bytes, utilisation_cap, ...).
    """

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        association: Optional[AssociationManager] = None,
        capacity_bps: Optional[Dict[str, float]] = None,
        coverage_threshold: float = 0.05,
        gauge_interval_s: float = 5.0,
        owned_sites: Optional[List[str]] = None,
        **server_kwargs,
    ) -> None:
        if not 0.0 <= coverage_threshold <= 1.0:
            raise ValueError("coverage threshold must be in [0, 1]")
        if gauge_interval_s < 0:
            raise ValueError("gauge interval must be >= 0")
        self.sim = sim
        self.topology = topology
        # Explicit None check: an AssociationManager is falsy while empty.
        self.association = (
            association
            if association is not None
            else AssociationManager(sim, topology)
        )
        self.capacity_bps = dict(capacity_bps or DEFAULT_CAPACITY_BPS)
        self.coverage_threshold = coverage_threshold
        self.gauge_interval_s = gauge_interval_s
        if owned_sites is None:
            sites = list(topology)
        else:
            by_name = {site.name: site for site in topology}
            missing = sorted(set(owned_sites) - set(by_name))
            if missing:
                raise KeyError(f"owned sites not in topology: {missing}")
            sites = [by_name[name] for name in sorted(set(owned_sites))]
        self.cells: Dict[str, Cell] = {
            site.name: Cell(site, HotspotServer(sim, **server_kwargs))
            for site in sites
        }
        #: Session objects by client, held across handoffs (shared with
        #: whichever server currently schedules the client).
        self._sessions: Dict[str, ClientSession] = {}
        self._clients: Dict[str, "HotspotClient"] = {}
        self.rejected = 0
        self._running = False

    # -- queries ---------------------------------------------------------------

    def cell(self, name: str) -> Cell:
        try:
            return self.cells[name]
        except KeyError:
            raise KeyError(
                f"unknown cell {name!r}; known: {sorted(self.cells)}"
            ) from None

    def cell_of(self, client_name: str) -> Optional[Cell]:
        """The local cell a client is associated with, if any.

        None when unattached *or* when the association points at a site
        another shard's world owns (mid cross-shard migration).
        """
        site = self.association.site_of(client_name)
        return self.cells.get(site) if site is not None else None

    def client(self, client_name: str) -> "HotspotClient":
        return self._clients[client_name]

    def client_names(self) -> List[str]:
        """All admitted clients, sorted for deterministic iteration."""
        return sorted(self._clients)

    def session_of(self, client_name: str) -> ClientSession:
        return self._sessions[client_name]

    def load_fraction(self, cell: Cell) -> float:
        """The cell's hottest channel: max contracted-rate utilisation."""
        fractions = [
            cell.server.projected_load_bps(kind) / self.capacity_bps[kind]
            for kind in cell.site.radios
            if self.capacity_bps.get(kind)
        ]
        return max(fractions) if fractions else 0.0

    # -- admission steering ----------------------------------------------------

    def select_cell(
        self, client: "HotspotClient", position: Tuple[float, float]
    ) -> Optional[Cell]:
        """The cell a new client at ``position`` should land on.

        Candidates are the cells covering the position (cell quality at
        or above ``coverage_threshold``); among those whose bandwidth
        check passes, the least-loaded wins, with better coverage and
        then the site name breaking ties.  Returns None when nothing
        both covers and admits.
        """
        admissible: List[Tuple[float, float, str, Cell]] = []
        for site, quality in self.topology.ranked_sites(position):
            if quality < self.coverage_threshold:
                continue
            cell = self.cells.get(site.name)
            if cell is None:  # site owned by another shard's world
                continue
            if cell.server.can_admit(client):
                admissible.append(
                    (self.load_fraction(cell), -quality, site.name, cell)
                )
        if not admissible:
            return None
        return min(admissible)[3]

    def admit(
        self, client: "HotspotClient", position: Tuple[float, float]
    ) -> Cell:
        """Steer and register a new client; raises when no cell can host.

        The chosen cell's server takes the registration (parking the
        client's radios); the association and the shared session object
        are recorded fleet-side so roaming and ingest keep working when
        the client later moves.
        """
        cell = self.select_cell(client, position)
        if cell is None:
            self.rejected += 1
            bus = self.sim.trace
            if bus.enabled:
                bus.emit("net", client.name, "admission-rejected")
            raise AdmissionError(
                f"no covering cell can admit client {client.name!r} at "
                f"{position!r}"
            )
        self._track(client, cell.server.register(client), cell)
        bus = self.sim.trace
        if bus.enabled:
            bus.emit(
                "net",
                client.name,
                "admitted",
                cell=cell.name,
                load=self.load_fraction(cell),
            )
        return cell

    # -- shard hooks (repro.shard) ---------------------------------------------

    def place(self, client: "HotspotClient", cell_name: str) -> Cell:
        """Register a client on a pre-planned cell, bypassing steering.

        The shard runner plans the initial placement centrally — a pure
        function of the spec, identical in every world — so each world
        places only its own residents.  Same bookkeeping as
        :meth:`admit` minus the admission decision.
        """
        cell = self.cell(cell_name)
        return self._track(client, cell.server.register(client), cell)

    def adopt_migrant(
        self, client: "HotspotClient", session: ClientSession, cell_name: str
    ) -> Cell:
        """Track a roamed-in client (cross-shard ingress) fleet-side.

        Records the shared session and the association, so ingest works
        from the restore instant; the cell server's ``adopt_session``
        happens separately once the reassociation latency has elapsed.
        """
        return self._track(client, session, self.cell(cell_name))

    def _track(
        self, client: "HotspotClient", session: ClientSession, cell: Cell
    ) -> Cell:
        """Record the shared session and the association fleet-side."""
        self._sessions[client.name] = session
        self._clients[client.name] = client
        self.association.associate(client.name, cell.name)
        return cell

    def release(self, client_name: str) -> Tuple["HotspotClient", ClientSession]:
        """Forget a client that roamed to a cell another world owns."""
        client = self._clients.pop(client_name)
        session = self._sessions.pop(client_name)
        return client, session

    # -- traffic ingress -------------------------------------------------------

    def ingest(self, client_name: str, nbytes: int, kind: str = "data") -> None:
        """Proxy bytes for ``client_name`` arrived at the fleet.

        Routed straight to the client's session object, which the
        serving cell shares — correct even in the handoff window when
        no server holds the session.
        """
        if nbytes <= 0:
            raise ValueError("ingest size must be positive")
        session = self._sessions.get(client_name)
        if session is None:
            raise KeyError(f"unknown client {client_name!r}")
        session.backlog_bytes += nbytes

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Start every cell's scheduling loop (and the gauge monitor)."""
        if self._running:
            raise RuntimeError("fleet already started")
        self._running = True
        for name in sorted(self.cells):
            self.cells[name].server.start()
        if self.gauge_interval_s > 0:
            self.sim.process(self._gauge_loop(), name="fleet-gauges")

    def _gauge_loop(self):
        while True:
            yield self.sim.timeout(self.gauge_interval_s)
            bus = self.sim.trace
            if not bus.enabled:
                continue
            for name in sorted(self.cells):
                cell = self.cells[name]
                bus.emit(
                    "net",
                    name,
                    "cell-load",
                    load=self.load_fraction(cell),
                    clients=len(cell.server.sessions),
                )

    # -- fleet accounting ------------------------------------------------------

    def cell_summary(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready per-cell breakdown for scenario ``extras``."""
        summary: Dict[str, Dict[str, object]] = {}
        for name in sorted(self.cells):
            cell = self.cells[name]
            server = cell.server
            summary[name] = {
                "clients": len(server.sessions),
                "adoptions": cell.adoptions,
                "load_fraction": self.load_fraction(cell),
                "bursts_served": server.bursts_served,
                "bytes_served": server.bytes_served,
                "bursts_failed": sum(
                    s.bursts_failed for s in server.sessions.values()
                ),
            }
        return summary

    def __repr__(self) -> str:
        return (
            f"<FleetCoordinator cells={len(self.cells)} "
            f"clients={len(self._clients)}>"
        )
