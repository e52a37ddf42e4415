"""Gate CI on a bench record from ``bench_kernel.py`` or ``bench_shard.py``.

For kernel records (``"bench": "kernel"``), two checks:

- **floor** — every scenario point must clear ``--min-events-per-s``
  wall-clock events/s (or its entry in ``SCENARIO_FLOORS``, whichever
  is higher).  Floors are deliberately conservative (an order of
  magnitude under typical machines): they catch a kernel that has
  fallen off a cliff, not day-to-day machine noise.
- **baseline** (optional) — with ``--baseline FILE``, every point must
  reach ``--tolerance`` times the matching scenario's events/s in the
  older record.  For local before/after comparisons; CI uses the floor.

For shard records (``"bench": "shard"``):

- **identity** — every point must report byte-identical merged payloads
  across shard counts.  This is unconditional: determinism does not
  depend on the machine.
- **speedup** — gate points (``"gate": true``) must reach
  ``--min-speedup`` over ``shards=1``, enforced only when the recording
  machine had >= 4 CPUs; a single-core container cannot exhibit
  parallel speedup, so the check degrades to a visible skip there.

Exit status 0 = pass, 1 = regression, 2 = unusable record.
"""

import argparse
import json
import sys

#: Conservative default: real machines do hundreds of thousands of
#: events/s since the calendar-queue kernel rework; an order of
#: magnitude of headroom absorbs slow or loaded CI machines.
DEFAULT_FLOOR_EVENTS_PER_S = 10_000.0

#: Per-scenario floors overriding the default where the workload is
#: long enough to measure reliably.  psm-baseline dominates the bench
#: (~148 k events per 30 s simulated, 1.2-1.3 s wall) and sustains
#: ~113-124 k events/s on a 2-vCPU Xeon VM with Python 3.11 (three runs
#: of ``bench_kernel.py``), so even a pessimistic CI box clears 30 k.
#: Events/s has fallen twice as the same run got cheaper: from ~180 k
#: when the DCF backoff stopped scheduling three events per idle slot,
#: and from ~110-145 k (~202 k events, 1.4-1.8 s) when radio
#: transitions and frame transmissions stopped spawning a process each.
#: It falls a third time, floor unchanged, now that ACKs, CTSs and μNap
#: naps are callback chains and stale busy waiters and unobserved queue
#: puts schedule nothing (~148 k -> ~127 k events per 30 s simulated).
#: Each remaining event does more useful work.
SCENARIO_FLOORS = {
    "psm-baseline": 30_000.0,
}


def load_payload(path):
    try:
        with open(path, encoding="utf-8") as stream:
            payload = json.load(stream)
        payload["points"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"check_bench: unusable record {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not payload["points"]:
        print(f"check_bench: {path} has no points", file=sys.stderr)
        sys.exit(2)
    return payload


def load_points(path):
    return {p["scenario"]: p for p in load_payload(path)["points"]}


def check_shard(payload, min_speedup):
    """Identity always; speedup only where the hardware can show it."""
    cpus = payload.get("cpu_count") or 0
    failures = []
    for point in payload["points"]:
        name = point.get("scenario", "?")
        if point.get("sim_events", 0) <= 0:
            failures.append(f"{name}: scheduled no events")
            continue
        if not point.get("identical"):
            failures.append(
                f"{name}: merged payloads differ across shard counts"
            )
            continue
        speedup = point.get("speedup", 0.0)
        if point.get("gate") and cpus >= 4:
            if speedup < min_speedup:
                failures.append(
                    f"{name}: {speedup:.2f}x speedup under the "
                    f"{min_speedup:.1f}x gate ({cpus} CPUs)"
                )
                continue
        elif point.get("gate"):
            print(
                f"check_bench: {name}: speedup gate skipped "
                f"({cpus} CPU(s) < 4); identity held at {speedup:.2f}x"
            )
            continue
        print(
            f"check_bench: {name}: byte-identical across shards, "
            f"{speedup:.2f}x speedup"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("record", help="BENCH_kernel.json to check")
    parser.add_argument(
        "--min-events-per-s",
        type=float,
        default=DEFAULT_FLOOR_EVENTS_PER_S,
        metavar="RATE",
        help="wall-clock events/s floor every scenario must clear "
        f"(default: {DEFAULT_FLOOR_EVENTS_PER_S:.0f})",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="older BENCH_kernel.json to compare against per scenario",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help="with --baseline: minimum fraction of the baseline events/s "
        "each scenario must reach (default: 0.5)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        metavar="FACTOR",
        help="shard records: speedup gate points must reach over shards=1 "
        "on machines with >= 4 CPUs (default: 2.0)",
    )
    args = parser.parse_args(argv)

    payload = load_payload(args.record)
    if payload.get("bench") == "shard":
        failures = check_shard(payload, args.min_speedup)
        if failures:
            for failure in failures:
                print(f"check_bench: FAIL {failure}", file=sys.stderr)
            return 1
        print(f"check_bench: all {len(payload['points'])} shard point(s) pass")
        return 0

    points = {p["scenario"]: p for p in payload["points"]}
    failures = []
    for name, point in sorted(points.items()):
        rate = point.get("events_per_s", 0.0)
        events = point.get("sim_events", 0)
        floor = max(args.min_events_per_s, SCENARIO_FLOORS.get(name, 0.0))
        if events <= 0:
            failures.append(f"{name}: scheduled no events")
        elif rate < floor:
            failures.append(
                f"{name}: {rate:.0f} events/s under the {floor:.0f} floor"
            )
        else:
            print(f"check_bench: {name}: {rate:.0f} events/s ok (floor {floor:.0f})")

    if args.baseline:
        baseline = load_points(args.baseline)
        for name, point in sorted(points.items()):
            if name not in baseline:
                continue
            rate = point.get("events_per_s", 0.0)
            floor = baseline[name].get("events_per_s", 0.0) * args.tolerance
            if rate < floor:
                failures.append(
                    f"{name}: {rate:.0f} events/s is under "
                    f"{args.tolerance:.0%} of the baseline "
                    f"({baseline[name]['events_per_s']:.0f})"
                )

    if failures:
        for failure in failures:
            print(f"check_bench: FAIL {failure}", file=sys.stderr)
        return 1
    print(f"check_bench: all {len(points)} scenario(s) pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
