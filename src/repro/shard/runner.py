"""The sharded fleet runner: barrier loop, worker processes, merge.

Conservative synchronisation with lookahead = the scheduling epoch: the
parent drives every shard through the same sequence of barrier times
(``epoch_s`` apart, ending exactly at ``duration_s``); at each barrier a
shard applies its inbox, advances its cell-worlds to the barrier, and
drains an outbox of cross-shard messages which the parent routes into
the next round's inboxes.  Nothing inside an epoch crosses a shard
boundary, and the handoff QoS guard is widened by one epoch, so the
conservative window never costs an underrun the single-process fleet
would have avoided.

Determinism contract: cell-worlds are created per *cell*, not per
worker, and every message carries an ``(origin cell, per-world seq)``
tag the parent sorts each inbox by.  The merged result (and each
per-cell partial) is therefore byte-identical for any ``shards`` value —
``--shards`` chooses process placement, never behaviour.  Wall-clock
telemetry goes to ``progress.jsonl`` heartbeats, never into results.

The final barrier is special: freshly decided departures are *not*
drained (there is no later barrier to carry back the grant/decline, so
those clients stay origin-owned and are reported by the origin), and one
last flush delivers the in-flight replies so every stashed client is
settled before collection.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Dict, List, Optional, Tuple

from repro._domain import Domain
from repro.build.builder import fleet_floor_plan, fleet_label
from repro.build.spec import WorldSpec
from repro.shard.plan import partition_cells, placement_plan
from repro.shard.world import CellWorld

__all__ = ["merge_partials", "run_sharded_fleet"]


def _barrier_times(duration_s: float, epoch_s: float) -> List[float]:
    """Epoch multiples up to and including ``duration_s`` exactly."""
    if epoch_s <= 0:
        raise ValueError("epoch must be positive")
    times: List[float] = []
    k = 1
    while True:
        t = k * epoch_s
        if t >= duration_s:
            break
        times.append(t)
        k += 1
    times.append(duration_s)
    return times


class _ShardHost:
    """One shard's cell-worlds, stepped together between barriers."""

    def __init__(
        self,
        spec: WorldSpec,
        cells: List[str],
        plan: Dict[str, str],
        metrics: bool = False,
    ) -> None:
        self.worlds: List[CellWorld] = []
        for cell in sorted(cells):
            obs = None
            if metrics:
                from repro.obs.session import ObsSession

                obs = ObsSession(collect_metrics=True)
            self.worlds.append(CellWorld(spec, cell, plan, obs=obs))

    def step(
        self,
        until_s: float,
        inbox: Dict[str, List[dict]],
        final: bool,
    ) -> Tuple[List[dict], Dict[str, int]]:
        out: List[dict] = []
        clients = 0
        events = 0
        for world in self.worlds:
            world.apply_ingress(inbox.get(world.cell_name, []))
            world.advance(until_s)
            out.extend(world.drain_outbox(migrations=not final))
            clients += len(world.fleet.client_names())
            events += world.sim.events_scheduled
        return out, {
            "cells": len(self.worlds),
            "clients": clients,
            "sim_events": events,
        }

    def flush(self, inbox: Dict[str, List[dict]]) -> None:
        """Apply the post-final-barrier replies (no further advance)."""
        for world in self.worlds:
            world.apply_ingress(inbox.get(world.cell_name, []))

    def collect(self) -> List[dict]:
        return [world.collect() for world in self.worlds]

    def handle(self, message: tuple) -> tuple:
        """Run one parent command and return the reply to send back."""
        kind = message[0]
        if kind == "step":
            _, until_s, inbox, final = message
            out, stats = self.step(until_s, inbox, final)
            return ("out", out, stats)
        if kind == "flush":
            self.flush(message[1])
            return ("flushed",)
        if kind == "collect":
            return ("result", self.collect())
        raise ValueError(f"unknown shard command {kind!r}")


class _InlineShard:
    """Same stepping surface as a worker process, in-process."""

    def __init__(self, spec, cells, plan, metrics) -> None:
        self._host = _ShardHost(spec, cells, plan, metrics)

    def submit(self, message) -> None:
        self._pending = message

    def receive(self):
        return self._host.handle(self._pending)

    def close(self) -> None:
        pass


def _shard_worker(conn, spec, cells, plan, metrics) -> None:
    """Worker-process main loop: step on command until collected."""
    try:
        host = _ShardHost(spec, cells, plan, metrics)
        while True:
            message = conn.recv()
            conn.send(host.handle(message))
            if message[0] == "collect":
                return
    except Exception as error:  # surface in the parent, not a hang
        import traceback

        conn.send(("error", f"{error!r}\n{traceback.format_exc()}"))
    finally:
        conn.close()


class _ProcessShard:
    """A shard living in its own OS process, driven over a pipe."""

    def __init__(self, spec, cells, plan, metrics) -> None:
        self._conn, child = multiprocessing.Pipe()
        self._process = multiprocessing.Process(
            target=_shard_worker,
            args=(child, spec, cells, plan, metrics),
            daemon=True,
        )
        self._process.start()
        child.close()

    def submit(self, message) -> None:
        self._conn.send(message)

    def receive(self):
        reply = self._conn.recv()
        if reply[0] == "error":
            raise RuntimeError(f"shard worker failed:\n{reply[1]}")
        return reply

    def close(self) -> None:
        self._conn.close()
        self._process.join(timeout=10.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()


def merge_partials(
    spec: WorldSpec, partials: List[dict]
) -> Dict[str, object]:
    """Fold per-cell partials into one campaign-style payload.

    The ``record`` mirrors the non-sharded fleet's ``summary_record()``
    key set *minus* the volatile timing fields (``wall_time_s``,
    ``events_per_second``) — the merged record must be byte-identical
    across worker counts, and wall-clock telemetry belongs in the
    progress heartbeats.  The shard count itself is deliberately absent
    for the same reason.
    """
    parts = sorted(partials, key=lambda p: p["cell"])
    clients = sorted(
        (dict(c) for p in parts for c in p["clients"]),
        key=lambda c: c["name"],
    )
    names = [c["name"] for c in clients]
    expected = sorted(node.name for node in spec.clients)
    if names != expected:
        missing = sorted(set(expected) - set(names))
        duplicated = sorted(
            {n for n in names if names.count(n) > 1}
        )
        raise RuntimeError(
            "shard merge lost track of clients: "
            f"missing={missing} duplicated={duplicated}"
        )
    n = len(clients)
    cells: Dict[str, object] = {}
    for part in parts:
        cells.update(part["cells"])
    timeline = sorted(
        (row for part in parts for row in part["handoff_timeline"]),
        key=lambda row: (row[0], row[1], row[2], row[3]),
    )
    record: Dict[str, object] = {
        "label": fleet_label(spec),
        "duration_s": spec.duration_s,
        "n_clients": n,
        "wnic_power_w": sum(c["wnic_power_w"] for c in clients) / n,
        "device_power_w": sum(c["device_power_w"] for c in clients) / n,
        "qos_maintained": all(c["qos_maintained"] for c in clients),
        "bursts": sum(c["bursts"] for c in clients),
        "bytes_received": sum(c["bytes_received"] for c in clients),
        "switchovers": sum(c["switchovers"] for c in clients),
        "sim_events": sum(p["sim_events"] for p in parts),
        "n_aps": spec.fleet.n_aps,
        "handoffs": sum(p["handoffs"] for p in parts),
        "handoff_suspensions": sum(p["handoff_suspensions"] for p in parts),
        "handoffs_declined": sum(p["handoffs_declined"] for p in parts),
        "association_churn": sum(p["association_churn"] for p in parts),
        "admission_rejections": sum(
            p["admission_rejections"] for p in parts
        ),
        "cells": {name: cells[name] for name in sorted(cells)},
        "handoff_timeline": timeline,
    }
    record.update(spec.extras)
    snapshots = [p["metrics"] for p in parts if p.get("metrics")]
    merged_metrics = None
    if snapshots:
        from repro.exp.aggregate import merge_metric_snapshots

        merged_metrics = merge_metric_snapshots(snapshots)
    return {"record": record, "clients": clients, "metrics": merged_metrics}


def run_sharded_fleet(
    spec: WorldSpec,
    shards: int = 1,
    store_dir: Optional[str] = None,
    metrics: bool = False,
    heartbeat_every: int = 40,
) -> Dict[str, object]:
    """Run a fleet spec space-parallel across ``shards`` processes.

    ``shards=1`` steps every cell-world inline (no processes) through
    the *same* barrier protocol, so it is both the debugging mode and
    the reference the multi-process runs must match byte-for-byte.
    With ``store_dir`` set, writes ``shards/<cell>.json`` partials,
    ``merged.json``, and ``progress.jsonl`` shard heartbeats.
    """
    if spec.delivery != "fleet":
        raise ValueError("run_sharded_fleet needs a fleet world spec")
    Domain(int, ge=1).check("run_sharded_fleet.shards", shards)
    topology, _arena = fleet_floor_plan(spec.fleet)
    cell_names = [site.name for site in topology]
    plan = placement_plan(spec)
    groups = partition_cells(cell_names, shards)
    cell_to_shard = {
        cell: index for index, group in enumerate(groups) for cell in group
    }
    label = fleet_label(spec)

    progress = None
    if store_dir is not None:
        os.makedirs(os.path.join(store_dir, "shards"), exist_ok=True)
        from repro.exp.progress import ProgressLog

        progress = ProgressLog(
            os.path.join(store_dir, "progress.jsonl"), campaign=label
        )

    if shards == 1 or len(groups) == 1:
        workers = [_InlineShard(spec, groups[0], plan, metrics)]
    else:
        workers = [
            _ProcessShard(spec, group, plan, metrics) for group in groups
        ]

    started = time.perf_counter()
    times = _barrier_times(spec.duration_s, spec.epoch_s)
    barriers = len(times)
    inboxes: List[Dict[str, List[dict]]] = [{} for _ in workers]
    try:
        for round_index, barrier_t in enumerate(times):
            final = round_index == barriers - 1
            for worker, inbox in zip(workers, inboxes):
                worker.submit(("step", barrier_t, inbox, final))
            outputs = []
            stats = []
            for worker in workers:
                reply = worker.receive()
                outputs.append(reply[1])
                stats.append(reply[2])
            messages = sorted(
                (m for out in outputs for m in out),
                key=lambda m: (m["origin"], m["seq"]),
            )
            inboxes = [{} for _ in workers]
            for message in messages:
                target_cell = message["to"]
                shard = cell_to_shard[target_cell]
                inboxes[shard].setdefault(target_cell, []).append(message)
            if progress is not None and (
                final or (round_index + 1) % heartbeat_every == 0
            ):
                wall = time.perf_counter() - started
                for shard, stat in enumerate(stats):
                    events = stat["sim_events"]
                    progress.emit(
                        "shard",
                        label=label,
                        shard=shard,
                        shards=len(workers),
                        cells=stat["cells"],
                        clients=stat["clients"],
                        barrier=round_index + 1,
                        barriers=barriers,
                        sim_time_s=barrier_t,
                        sim_events=events,
                        wall_time_s=wall,
                        events_per_second=(
                            events / wall if wall > 0 else None
                        ),
                    )
        for worker, inbox in zip(workers, inboxes):
            worker.submit(("flush", inbox))
        for worker in workers:
            worker.receive()
        partials: List[dict] = []
        for worker in workers:
            worker.submit(("collect",))
            reply = worker.receive()
            partials.extend(reply[1])
    finally:
        for worker in workers:
            worker.close()

    merged = merge_partials(spec, partials)
    if store_dir is not None:
        from repro.exp.jsonio import dumps_strict

        for partial in partials:
            path = os.path.join(
                store_dir, "shards", f"{partial['cell']}.json"
            )
            with open(path, "w", encoding="utf-8") as stream:
                stream.write(
                    dumps_strict(partial, indent=2, sort_keys=True)
                )
                stream.write("\n")
        with open(
            os.path.join(store_dir, "merged.json"), "w", encoding="utf-8"
        ) as stream:
            stream.write(dumps_strict(merged, indent=2, sort_keys=True))
            stream.write("\n")
        if progress is not None:
            progress.emit(
                "shard-end",
                label=label,
                shards=len(workers),
                barriers=barriers,
                wall_time_s=time.perf_counter() - started,
            )
            progress.close()
    return merged
