"""repro.shard — space-parallel sharded fleet simulation.

A fleet world decomposes naturally along its AP cells: each client is
served by exactly one cell at a time, and the only cross-cell coupling
is roaming.  This package exploits that — the fleet's topology is
partitioned into cell shards, each shard hosts one independent
:class:`~repro.shard.world.CellWorld` (own kernel, own seeded streams)
per owned cell, and the shards advance in lock-step under a conservative
barrier protocol whose lookahead is the scheduling epoch (the beacon
interval): simulate to the next epoch boundary, exchange a
deterministically ordered batch of cross-shard messages (roaming handoff
requests and their grants/declines, carrying the client's full session
state), advance again.

The decomposition is *logical, not physical*: every cell gets its own
world regardless of ``--shards``, which only controls how many OS
processes the worlds are dealt across.  Merged results are therefore
byte-identical for any worker count — the headline determinism contract
(see DESIGN.md, "Sharded simulation").

Entry points: :func:`run_sharded_fleet` (the runner, behind
``repro fleet --shards N``), :func:`placement_plan` and
:func:`partition_cells` (the pure planning functions).
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "plan": ("AdmissionProbe", "partition_cells", "placement_plan"),
        "runner": ("merge_partials", "run_sharded_fleet"),
        "world": ("CellWorld",),
    },
)
