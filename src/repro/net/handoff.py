"""Roaming: moving a streaming client between cells without QoS loss.

The :class:`HandoffController` periodically re-evaluates every client
against the topology: when another site's coverage beats the current
cell's by at least a hysteresis margin (or the current cell no longer
covers the client at all), the client's session is *detached* from its
server, the association re-pointed — which instantly flips the client's
interface-quality signals to the new site's link budgets — and, after a
seeded reassociation latency, *adopted* by the new cell's server, which
re-schedules the travelled backlog on its next round.

Determinism and QoS:

- all randomness (the reassociation latency) comes from per-client
  ``net/handoff/<client>`` substreams, so one client's roaming history
  never perturbs another's and identical seeds give byte-identical
  handoff timelines;
- hysteresis (quality margin + minimum dwell) keeps a client sitting at
  a coverage boundary from ping-ponging between equal-quality cells;
- when the client's playout buffer cannot bridge the reassociation
  latency, the controller reuses the churn machinery
  (``pause_client``/``resume_client``) so playback suspends instead of
  underrunning — the same path PR 3's fault injection exercises.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.net.fleet import Cell, FleetCoordinator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.streams import RandomStreams

#: A position signal: ``f(time_s) -> (x, y)`` metres (any mobility model).
PositionFn = object


class HandoffController:
    """Roams clients between a fleet's cells on coverage signals.

    Parameters
    ----------
    sim, fleet, streams:
        Simulation, coordinator, and the experiment's seeded streams.
    check_interval_s:
        Evaluation period (every client, in sorted name order).
    hysteresis_margin:
        A candidate cell must beat the current one by this much cell
        quality before a roam triggers (ping-pong suppression).
    min_dwell_s:
        Minimum time between a client's consecutive handoffs; waived
        when the current cell stops covering the client entirely.
    latency_range_s:
        Uniform draw bounds for the reassociation latency, from the
        client's ``net/handoff/<client>`` substream.
    underrun_guard_s:
        Playback must have at least ``latency + guard`` buffered to roam
        live; otherwise playback is suspended across the handoff.
    """

    def __init__(
        self,
        sim: "Simulator",
        fleet: FleetCoordinator,
        streams: "RandomStreams",
        check_interval_s: float = 1.0,
        hysteresis_margin: float = 0.1,
        min_dwell_s: float = 5.0,
        latency_range_s: Tuple[float, float] = (0.05, 0.2),
        underrun_guard_s: float = 0.5,
    ) -> None:
        if check_interval_s <= 0:
            raise ValueError("check interval must be positive")
        if hysteresis_margin < 0:
            raise ValueError("hysteresis margin must be >= 0")
        if min_dwell_s < 0:
            raise ValueError("min dwell must be >= 0")
        if not 0.0 <= latency_range_s[0] <= latency_range_s[1]:
            raise ValueError("need 0 <= latency_low <= latency_high")
        if underrun_guard_s < 0:
            raise ValueError("underrun guard must be >= 0")
        self.sim = sim
        self.fleet = fleet
        self.streams = streams
        self.check_interval_s = check_interval_s
        self.hysteresis_margin = hysteresis_margin
        self.min_dwell_s = min_dwell_s
        self.latency_range_s = latency_range_s
        self.underrun_guard_s = underrun_guard_s
        #: Client position signals, registered via :meth:`track`.
        self._positions: Dict[str, PositionFn] = {}
        self._in_transit: Set[str] = set()
        self._last_move: Dict[str, float] = {}
        self.handoffs = 0
        #: Roams the buffer could not bridge live (playback suspended).
        self.suspensions = 0
        #: Roams declined because the target cell was at capacity.
        self.declined = 0
        #: (time, client, from_site, to_site) — the handoff timeline.
        self.timeline: List[Tuple[float, str, str, str]] = []
        #: Cross-shard roaming (repro.shard): when enabled, a best site
        #: with no local cell becomes a remote departure record instead
        #: of a KeyError.
        self.remote_enabled = False
        #: Extra QoS-guard window covering the barrier wait a remote
        #: move adds on top of the reassociation latency.
        self.remote_window_s = 0.0
        #: Departure records the shard layer drains at each barrier.
        self.remote_departures: List[Dict[str, object]] = []
        #: Earliest re-attempt time after a declined cross-shard move.
        self._remote_backoff: Dict[str, float] = {}
        self._running = False

    # -- registration ----------------------------------------------------------

    def track(self, client_name: str, mobility) -> None:
        """Follow ``client_name`` at ``mobility`` (needs ``position(t)``)."""
        if not hasattr(mobility, "position"):
            raise TypeError("mobility must expose position(time_s)")
        self._positions[client_name] = mobility

    # -- cross-shard roaming (repro.shard) -------------------------------------

    def enable_remote_egress(self, window_s: float) -> None:
        """Allow roams towards sites this world does not own.

        ``window_s`` is the worst-case wait until the owning world picks
        the migration up (one barrier epoch); the QoS guard widens by it
        so a protected pause covers the whole limbo.
        """
        if window_s < 0:
            raise ValueError("remote window must be >= 0")
        self.remote_enabled = True
        self.remote_window_s = window_s

    def untrack(self, client_name: str) -> None:
        """Stop following a client that left this world."""
        self._positions.pop(client_name, None)
        self._in_transit.discard(client_name)

    def arrive(self, client_name: str, mobility, at_s: float) -> None:
        """Track a roamed-in client; dwell time counts from ``at_s``."""
        self.track(client_name, mobility)
        self._last_move[client_name] = at_s
        self._in_transit.discard(client_name)

    def note_remote_decline(self, client_name: str, retry_after_s: float) -> None:
        """A cross-shard move bounced: back off before trying again.

        Out-of-coverage clients waive the dwell check, so without a
        backoff a bounced client would re-attempt the same full cell
        every evaluation round.
        """
        self.declined += 1
        self._remote_backoff[client_name] = retry_after_s

    # -- the roaming loop ------------------------------------------------------

    def start(self):
        if self._running:
            raise RuntimeError("handoff controller already started")
        self._running = True
        return self.sim.process(self._loop(), name="handoff-controller")

    def _loop(self):
        while True:
            yield self.sim.timeout(self.check_interval_s)
            for name in sorted(self._positions):
                decision = self._evaluate(name)
                if decision is not None:
                    old_cell, new_cell = decision
                    self._in_transit.add(name)
                    self.sim.process(
                        self._execute(name, old_cell, new_cell),
                        name=f"handoff:{name}",
                    )

    def _evaluate(self, name: str) -> Optional[Tuple[Cell, Cell]]:
        """One client's roam decision; None means stay."""
        if name in self._in_transit:
            return None
        old_cell = self.fleet.cell_of(name)
        if old_cell is None or name not in old_cell.server.sessions:
            return None  # not attached (or mid-adoption elsewhere)
        session = old_cell.server.sessions[name]
        if session.paused:
            return None  # churned away; roam decisions resume with it
        now = self.sim.now
        position = self._positions[name].position(now)
        current_quality = old_cell.site.cell_quality(position)
        best = self.fleet.topology.best_site(position, exclude=(old_cell.name,))
        if best is None:
            return None
        site, quality = best
        covered = current_quality >= self.fleet.coverage_threshold
        if covered:
            if quality < current_quality + self.hysteresis_margin:
                return None  # hysteresis: not better enough
            if now - self._last_move.get(name, 0.0) < self.min_dwell_s:
                return None  # dwell: roamed (or arrived) too recently
        elif quality <= current_quality:
            return None  # out of coverage but nowhere better
        new_cell = self.fleet.cells.get(site.name)
        if new_cell is None:
            # The winning site lives in another shard's world.
            if self.remote_enabled:
                self._begin_remote_departure(name, old_cell, site.name)
            return None
        if not new_cell.server.can_admit(self.fleet.client(name)):
            self.declined += 1
            bus = self.sim.trace
            if bus.enabled:
                bus.emit(
                    "net",
                    name,
                    "handoff-declined",
                    target=new_cell.name,
                    load=self.fleet.load_fraction(new_cell),
                )
            return None
        return old_cell, new_cell

    def _begin_remote_departure(
        self, name: str, old_cell: Cell, target_site: str
    ) -> None:
        """Detach towards a cell another world owns (cross-shard egress).

        Mirrors :meth:`_execute` up to the detach, but the adoption
        happens in the owning world after the next barrier, so the
        origin only commits once the client is fully quiescent — radios
        asleep, no burst in flight.  A busy client simply retries on the
        next evaluation round; detaching first makes the quiescence
        permanent (no session, no new bursts).  The admission check, and
        therefore the grant/decline reply, is the target world's call.
        """
        now = self.sim.now
        if now < self._remote_backoff.get(name, 0.0):
            return
        client = self.fleet.client(name)
        if client.bursts_in_flight or not all(
            interface.is_asleep for interface in client.interfaces.values()
        ):
            return
        latency = self.streams.uniform(
            f"net/handoff/{name}", *self.latency_range_s
        )
        protect = client.time_until_underrun_s() <= (
            latency + self.remote_window_s + self.underrun_guard_s
        )
        if protect:
            old_cell.server.pause_client(name)
            self.suspensions += 1
        old_cell.server.detach_session(name)
        self.fleet.association.associate(name, target_site)
        self._in_transit.add(name)
        self._last_move[name] = now
        self.remote_departures.append(
            {
                "client": name,
                "origin": old_cell.name,
                "target": target_site,
                "t_detach": now,
                "latency_s": latency,
                "protected": protect,
            }
        )
        bus = self.sim.trace
        if bus.enabled:
            bus.emit(
                "net",
                name,
                "handoff-start",
                origin=old_cell.name,
                target=target_site,
                latency_s=latency,
                protected=protect,
                remote=True,
            )

    def _execute(self, name: str, old_cell: Cell, new_cell: Cell):
        """Detach → re-associate → (latency) → adopt, guarding QoS."""
        client = self.fleet.client(name)
        latency = self.streams.uniform(
            f"net/handoff/{name}", *self.latency_range_s
        )
        # Bridge the gap live when the buffer allows it; otherwise run
        # the churn machinery so no underruns accrue during the move.
        protect = (
            client.time_until_underrun_s() <= latency + self.underrun_guard_s
        )
        if protect:
            old_cell.server.pause_client(name)
            self.suspensions += 1
        session = old_cell.server.detach_session(name)
        self.fleet.association.associate(name, new_cell.name)
        bus = self.sim.trace
        if bus.enabled:
            bus.emit(
                "net",
                name,
                "handoff-start",
                origin=old_cell.name,
                target=new_cell.name,
                latency_s=latency,
                protected=protect,
            )
        if latency > 0:
            yield self.sim.timeout(latency)
        new_cell.server.adopt_session(session)
        new_cell.adoptions += 1
        if protect:
            new_cell.server.resume_client(name)
        self.handoffs += 1
        self._last_move[name] = self.sim.now
        self.timeline.append((self.sim.now, name, old_cell.name, new_cell.name))
        self._in_transit.discard(name)
        if bus.enabled:
            bus.emit(
                "net",
                name,
                "handoff-complete",
                origin=old_cell.name,
                target=new_cell.name,
                latency_s=latency,
            )

    # -- reporting -------------------------------------------------------------

    def timeline_records(self) -> List[List[object]]:
        """The timeline as JSON-ready rows (for scenario extras)."""
        return [
            [time_s, client, origin, target]
            for time_s, client, origin, target in self.timeline
        ]

    def __repr__(self) -> str:
        return (
            f"<HandoffController clients={len(self._positions)} "
            f"handoffs={self.handoffs}>"
        )
