"""One AP cell as an independent simulation world.

A :class:`CellWorld` is the shard protocol's unit of decomposition: its
own :class:`~repro.sim.core.Simulator`, its own
:class:`~repro.sim.streams.RandomStreams` seeded with the *same* master
seed as every other world (per-client substreams are identical wherever
the client happens to live), the full pure-data topology, and a
:class:`~repro.net.fleet.FleetCoordinator` that owns exactly one cell.
Because every world owns a single cell, *every* roam decision is a
cross-shard departure — the local handoff path never runs — which makes
the world count, and therefore the merged result, independent of how
worlds are dealt across processes.

The delicate part is traffic during migration.  Proxy bytes reach a
session through an :class:`~repro.apps.traffic.ArrivalFeed`, which
credits arrivals whenever the backlog is read.  A world keeps one feed
per client it has ever hosted, for the whole run (replaying a
half-consumed arrival generator deterministically would be fragile), so:

- on departure, the snapshot's backlog read settles the feed; later
  arrivals stay uncredited in it while the client is away;
- the world the client lands in starts its own feed from the barrier
  time with ``resumed=True``, skipping arrivals the client already
  received elsewhere (the substream is identical, so the skipped prefix
  is exactly what the previous worlds credited);
- a client coming *home* finds its feed still running: settling it
  discards the bytes the visited worlds delivered before it is
  reattached to the restored session;
- a *declined* migration bounces: the origin restores its stashed
  session, whose first backlog read credits what arrived while the move
  was in flight (nobody delivered those bytes), and backs the client off
  before it retries the full cell.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.apps.traffic import ArrivalFeed
from repro.build.builder import (
    assemble_fleet,
    attach_roaming_client,
    build_roaming_client,
    node_source,
    register_radios,
    roaming_walker,
)
from repro.build.spec import NodeSpec, WorldSpec
from repro.core.outcome import MP3_DECODE_BUSY_FRACTION
from repro.phy.mobility import RandomWaypoint
from repro.shard.messages import (
    restore_client_state,
    restore_session,
    snapshot_client,
)
from repro.shard.plan import AdmissionProbe
from repro.sim.core import Simulator
from repro.sim.streams import RandomStreams

__all__ = ["CellWorld"]


class CellWorld:
    """One owned cell, full topology knowledge, own kernel.

    Duck-types the builder's ``World`` where the shared fleet assembly
    functions need it: ``sim``, ``streams``, ``platform``, ``spec``,
    ``radios`` and the fleet layers :func:`assemble_fleet` sets.

    Parameters
    ----------
    spec:
        The *fleet* world spec (shared verbatim by every world).
    cell_name:
        The single site this world owns.
    plan:
        The :func:`~repro.shard.plan.placement_plan` mapping; residents
        are the clients it assigns to ``cell_name``.
    obs:
        Optional observability session (attached before any actor, like
        the builder does); per-world metrics snapshots merge later.
    """

    def __init__(
        self,
        spec: WorldSpec,
        cell_name: str,
        plan: Dict[str, str],
        obs=None,
    ) -> None:
        if spec.delivery != "fleet":
            raise ValueError("CellWorld requires a fleet world spec")
        self.spec = spec
        self.cell_name = cell_name
        self.plan = plan
        self.obs = obs
        self.sim = Simulator()
        if obs is not None:
            obs.attach(self.sim)
        self.streams = RandomStreams(seed=spec.seed)
        from repro.devices.profiles import ipaq_3970

        self.platform = spec.platform or ipaq_3970()
        self.radios: Dict[str, object] = {}
        assemble_fleet(self, owned_sites=[cell_name])
        # The QoS guard must bridge reassociation latency *plus* the
        # wait until the owning world picks the migration up at the next
        # barrier — one epoch of lookahead.
        self.handoff.enable_remote_egress(spec.epoch_s)
        self._nodes: Dict[str, NodeSpec] = {
            node.name: node for node in spec.clients
        }
        #: One mobility model per client, created on first need and kept
        #: forever: the ``mobility/<name>`` substream is consumed lazily
        #: and strictly in order, so a second model on the same substream
        #: would walk a different path.
        self._mobility: Dict[str, RandomWaypoint] = {}
        #: The arrival feed of every client this world has hosted.
        self._feeds: Dict[str, ArrivalFeed] = {}
        #: Departed (client, session, departure-record) awaiting a reply.
        self._stash: Dict[str, Tuple[object, object, dict]] = {}
        #: Grant/decline messages produced by ingress, drained next.
        self._replies: List[Dict[str, object]] = []
        self._seq = 0
        for node in spec.clients:
            if plan[node.name] == cell_name:
                self._install_resident(node)
        self.fleet.start()
        self.handoff.start()

    # -- assembly --------------------------------------------------------------

    def _mobility_for(self, name: str) -> RandomWaypoint:
        model = self._mobility.get(name)
        if model is None:
            model = self._mobility[name] = roaming_walker(self, name)
        return model

    def _install_resident(self, node: NodeSpec) -> None:
        mobility = self._mobility_for(node.name)
        client = build_roaming_client(self, node, mobility)
        self.fleet.place(client, self.cell_name)
        attach_roaming_client(self, node, client, mobility)
        self._feeds[node.name] = self.fleet.session_of(node.name).feed

    # -- barrier protocol ------------------------------------------------------

    def advance(self, until_s: float) -> None:
        """Simulate to the next epoch boundary."""
        self.sim.run(until=until_s)
        bus = self.sim.trace
        if bus.enabled:
            bus.emit(
                "net",
                self.cell_name,
                "shard-barrier",
                residents=len(self.fleet.client_names()),
            )

    def _message(self, kind: str, to: str, fields: Dict[str, object]):
        message = {
            "kind": kind,
            "to": to,
            "origin": self.cell_name,
            "seq": self._seq,
        }
        self._seq += 1
        message.update(fields)
        return message

    def drain_outbox(self, migrations: bool = True) -> List[Dict[str, object]]:
        """Messages to exchange at this barrier, in deterministic order.

        Replies first (produced during this round's ingress), then fresh
        departures.  ``migrations=False`` — the final barrier — keeps
        pending departures home: there is no later barrier to route a
        reply through, so the client stays origin-owned and is reported
        there (its session was never released).
        """
        out = self._replies
        self._replies = []
        if not migrations:
            return out
        now = self.sim.now
        for record in self.handoff.remote_departures:
            name = record["client"]
            client = self.fleet.client(name)
            session = self.fleet.session_of(name)
            snapshot = snapshot_client(client, session, now)
            self.fleet.release(name)
            self.handoff.untrack(name)
            self._stash[name] = (client, session, record)
            out.append(
                self._message(
                    "migrate",
                    record["target"],
                    {**record, "snapshot": snapshot},
                )
            )
        self.handoff.remote_departures = []
        return out

    def apply_ingress(self, messages: List[Dict[str, object]]) -> None:
        """Apply this barrier's inbox (already sorted by the runner)."""
        for message in messages:
            kind = message["kind"]
            if kind == "migrate":
                self._apply_migration(message)
            elif kind == "grant":
                self._apply_grant(message)
            elif kind == "decline":
                self._apply_decline(message)
            else:
                raise ValueError(f"unknown shard message kind {kind!r}")

    def _apply_migration(self, message: Dict[str, object]) -> None:
        name = message["client"]
        node = self._nodes[name]
        now = self.sim.now
        cell = self.fleet.cell(message["target"])
        if not cell.server.can_admit(AdmissionProbe(node)):
            self._replies.append(
                self._message("decline", message["origin"], {"client": name})
            )
            return
        self._replies.append(
            self._message("grant", message["origin"], {"client": name})
        )
        mobility = self._mobility_for(name)
        client = build_roaming_client(self, node, mobility)
        restore_client_state(client, message["snapshot"])
        session = restore_session(client, message["snapshot"])
        self.fleet.adopt_migrant(client, session, cell.name)
        self.handoff.arrive(name, mobility, now)
        register_radios(self, client)
        feed = self._feeds.get(name)
        if feed is None:
            feed = self._feeds[name] = ArrivalFeed(
                node_source(self, node), self.sim, self.spec.duration_s, resumed=True
            )
        else:
            # Coming home: the feed never stopped.  Discard what it
            # holds — the worlds the client visited delivered those
            # bytes (they are in the travelled session already).
            feed.settle()
        session.feed = feed
        delay = max(message["t_detach"] + message["latency_s"], now) - now
        self.sim.process(
            self._adoption(cell, session, message, delay),
            name=f"shard-adopt:{name}",
        )

    def _adoption(self, cell, session, message, delay_s: float):
        if delay_s > 0:
            yield self.sim.timeout(delay_s)
        name = message["client"]
        cell.server.adopt_session(session)
        cell.adoptions += 1
        if session.paused and message["protected"]:
            cell.server.resume_client(name)
        bus = self.sim.trace
        if bus.enabled:
            bus.emit(
                "net",
                name,
                "handoff-complete",
                origin=message["origin"],
                target=message["target"],
                latency_s=message["latency_s"],
                remote=True,
            )

    def _apply_grant(self, message: Dict[str, object]) -> None:
        name = message["client"]
        _client, _session, record = self._stash.pop(name)
        # The move is definitive: count it and put it on the timeline at
        # its detach time (a declined attempt never counts, as on the
        # local path, where declines happen before the move starts).
        self.handoff.handoffs += 1
        self.handoff.timeline.append(
            (record["t_detach"], name, record["origin"], record["target"])
        )

    def _apply_decline(self, message: Dict[str, object]) -> None:
        name = message["client"]
        client, session, record = self._stash.pop(name)
        now = self.sim.now
        # The session's feed stayed attached while the move was in
        # flight: its next backlog read credits the bytes that arrived
        # meanwhile, which nobody delivered.
        cell = self.fleet.adopt_migrant(client, session, record["origin"])
        cell.server.adopt_session(session)
        if session.paused and record["protected"]:
            cell.server.resume_client(name)
        self.handoff.arrive(name, self._mobility_for(name), now)
        self.handoff.note_remote_decline(
            name, now + self.handoff.min_dwell_s
        )

    # -- collection ------------------------------------------------------------

    def collect(self) -> Dict[str, object]:
        """This world's JSON-ready partial result at end of run.

        Per-client power is computed from total radio energy over the
        full duration — not the radios' own averaging window, which for
        a migrant starts at its last arrival, not at t=0.
        """
        duration = self.spec.duration_s
        platform_power = (
            MP3_DECODE_BUSY_FRACTION * self.platform.busy_power_w
            + (1.0 - MP3_DECODE_BUSY_FRACTION) * self.platform.idle_power_w
        )
        clients: List[Dict[str, object]] = []
        for name in self.fleet.client_names():
            client = self.fleet.client(name)
            session = self.fleet.session_of(name)
            qos = client.finish(duration)
            wnic_energy = sum(
                interface.radio.energy_j(duration)
                for interface in client.interfaces.values()
            )
            wnic_power = wnic_energy / duration if duration > 0 else 0.0
            clients.append(
                {
                    "name": name,
                    "qos_maintained": qos.maintained,
                    "underruns": qos.underruns,
                    "underrun_time_s": qos.underrun_time_s,
                    "deadline_misses": qos.deadline_misses,
                    "wnic_power_w": wnic_power,
                    "device_power_w": platform_power + wnic_power,
                    "bursts": client.bursts_received,
                    "bytes_received": client.bytes_received,
                    "switchovers": session.switchovers,
                }
            )
        return {
            "cell": self.cell_name,
            "clients": clients,
            "sim_events": self.sim.events_scheduled,
            "handoffs": self.handoff.handoffs,
            "handoff_suspensions": self.handoff.suspensions,
            "handoffs_declined": self.handoff.declined,
            "association_churn": self.association.churn,
            "admission_rejections": self.fleet.rejected,
            "cells": self.fleet.cell_summary(),
            "handoff_timeline": self.handoff.timeline_records(),
            "metrics": (
                self.obs.metrics_snapshot() if self.obs is not None else None
            ),
        }
