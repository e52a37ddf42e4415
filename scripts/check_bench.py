"""Gate CI on a ``bench_shard.py`` record (``"bench": "shard"``).

- **identity** — every point must report byte-identical merged payloads
  across shard counts.  This is unconditional: determinism does not
  depend on the machine.
- **speedup** — gate points (``"gate": true``) must reach
  ``--min-speedup`` over ``shards=1``, enforced only when the recording
  machine had >= 4 CPUs; a single-core container cannot exhibit
  parallel speedup, so the check degrades to a visible skip there.

Exit status 0 = pass, 1 = regression, 2 = unusable record (including
any record that is not a shard record).
"""

import argparse
import json
import sys


def load_payload(path):
    try:
        with open(path, encoding="utf-8") as stream:
            payload = json.load(stream)
        points = payload["points"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"check_bench: unusable record {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    if payload.get("bench") != "shard":
        print(
            f"check_bench: {path} is not a shard record "
            f"(bench: {payload.get('bench')!r})",
            file=sys.stderr,
        )
        sys.exit(2)
    if not points:
        print(f"check_bench: {path} has no points", file=sys.stderr)
        sys.exit(2)
    return payload


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
    parser.add_argument("record", help="BENCH_shard.json to check")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        metavar="FACTOR",
        help="speedup gate points must reach over shards=1 on machines "
        "with >= 4 CPUs (default: 2.0)",
    )
    args = parser.parse_args(argv)

    payload = load_payload(args.record)
    failures = check_shard(payload, args.min_speedup)
    if failures:
        for failure in failures:
            print(f"check_bench: FAIL {failure}", file=sys.stderr)
        return 1
    print(f"check_bench: all {len(payload['points'])} shard point(s) pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
