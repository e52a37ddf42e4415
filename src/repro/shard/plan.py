"""Pure planning: cell partitioning and the initial placement plan.

Both functions here are deterministic functions of the spec alone — no
shared simulator, no side effects.  That is what lets every cell-world
(and the parent runner) compute the same answers independently instead
of negotiating them at runtime:

- :func:`partition_cells` deals the sorted cell names into contiguous,
  balanced shard groups;
- :func:`placement_plan` runs the non-sharded fleet's own admission
  steering at t=0 on a throwaway fleet, so each world knows exactly
  which clients are its residents without ever seeing the other
  worlds' servers.
"""

from __future__ import annotations

from typing import Dict, List

from repro.build.spec import NodeSpec, WorldSpec
from repro.core.outcome import make_stream_contract
from repro.net.fleet import DEFAULT_CAPACITY_BPS

__all__ = ["AdmissionProbe", "partition_cells", "placement_plan"]


def partition_cells(cell_names: List[str], shards: int) -> List[List[str]]:
    """Deal sorted cell names into ``shards`` contiguous balanced groups.

    Sorted-contiguous blocks keep geographic neighbours (grid sites sort
    row-major) mostly co-resident, and make the partition a pure
    function of (cells, shards).  Shards beyond the cell count collapse:
    a group is never empty.
    """
    if shards < 1:
        raise ValueError("shard count must be >= 1")
    names = sorted(cell_names)
    if not names:
        raise ValueError("cannot partition an empty topology")
    shards = min(shards, len(names))
    base, extra = divmod(len(names), shards)
    groups: List[List[str]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        groups.append(names[start : start + size])
        start += size
    return groups


class _ProbeInterface:
    """Just enough interface surface for ``HotspotServer.can_admit``."""

    __slots__ = ("effective_rate_bps",)

    def __init__(self, effective_rate_bps: float) -> None:
        self.effective_rate_bps = effective_rate_bps


class AdmissionProbe:
    """A contract-only stand-in for a client in admission checks.

    Target worlds admit roamed-in clients *before* rebuilding them (the
    decline path must not construct radios), and the placement planner
    admits clients that do not exist yet; both need an object carrying
    the contract and the interface rates — nothing else.
    """

    def __init__(self, node: NodeSpec) -> None:
        self.name = node.name
        self.contract = make_stream_contract(
            node.name,
            node.contract_rate_bps,
            node.buffer_bytes,
            prebuffer_s=node.prebuffer_s,
            weight=node.weight,
        )
        self.interfaces: Dict[str, _ProbeInterface] = {}
        for ispec in node.interfaces:
            rate = (
                ispec.effective_rate_bps
                if ispec.effective_rate_bps is not None
                else DEFAULT_CAPACITY_BPS[ispec.kind]
            )
            self.interfaces[ispec.kind] = _ProbeInterface(rate)

    def initialise(self) -> None:
        """No radios to park (``HotspotServer.register`` calls this)."""


def placement_plan(spec: WorldSpec) -> Dict[str, str]:
    """Each client's home cell at t=0, by the fleet's own steering.

    Assembles the spec's fleet on a throwaway simulator and admits an
    :class:`AdmissionProbe` per client, in spec order, through
    :meth:`~repro.net.fleet.FleetCoordinator.admit` — the same ranking,
    admission arithmetic and tie-breaks as the non-sharded fleet, which
    admits real clients in the same order.  Positions come from the
    spec's seeded streams, so they equal every world's t=0 mobility
    draws.

    Raises :class:`~repro.core.server.AdmissionError` when a client fits
    nowhere, like the non-sharded fleet would at assembly time.
    """
    from repro.build.builder import World, assemble_fleet, roaming_walker
    from repro.sim.core import Simulator
    from repro.sim.streams import RandomStreams

    if spec.fleet is None:
        raise ValueError("placement_plan needs a fleet spec")
    world = World(spec, Simulator(), RandomStreams(seed=spec.seed), None)
    assemble_fleet(world)
    return {
        node.name: world.fleet.admit(
            AdmissionProbe(node),
            roaming_walker(world, node.name).position(0.0),
        ).name
        for node in spec.clients
    }
