"""A/B the end-to-end benchmark: a parent against a change, in pairs.

Run from the repository root::

    python scripts/ab.py PARENT CHANGE [--pairs 6] [--workload NAME]...
                         [--repeats 3] [--seed 0] [--out FILE]

Each side is a git revision of this repository or a directory holding a
checkout.  Both are copied fresh into a temporary directory (a revision
with ``git archive``, a directory without ``.git``, ``__pycache__``,
``.work`` and the other caches).  Then every pair runs
``benchmarks/e2e/run.py --trace 0`` once on each side, the first side
alternating from pair to pair, so drift of the host hits both alike.
Every run has ``PYTHONDONTWRITEBYTECODE=1`` and so does its benchmark
children: no side ever runs from bytecode, and each run compiles what
it imports, as a fresh checkout of the benchmark does.

For each workload and end-to-end metric of ``BENCHMARK.json`` the table
shows both medians over the pairs, the parent's interquartile range,
the pairs the change won, and a verdict: ``resolved`` when the change
is better in at least N-1 of N pairs and better in the median by more
than the parent's IQR, else ``unresolved``.  A pair where either side
reports a failed or incorrect run counts as a loss.  ``--out`` writes
the sides, every pair's metrics and the verdicts as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Left out of a directory side's copy: caches, bytecode, VCS data and
#: the benchmark's own scratch space.
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", ".work", ".hypothesis", ".pytest_cache"
)


def materialise(side: str, dest: Path) -> str:
    """Copy ``side`` (a directory or a git revision) into ``dest`` and
    return how it was resolved."""
    if os.path.isdir(side):
        shutil.copytree(side, dest, ignore=IGNORED)
        return f"directory {os.path.abspath(side)}"
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{side}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return f"commit {commit}"


def run_side(checkout: Path, args) -> dict:
    """One ``run.py --trace 0`` set on ``checkout``: its summary line, with
    every metric keyed ``workload.metric``."""
    command = [
        sys.executable, "benchmarks/e2e/run.py", "--trace", "0",
        "--repeats", str(args.repeats), "--seed", str(args.seed),
    ]
    for workload in args.workload:
        command += ["--workload", workload]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    lines = done.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"correct": False, "failed": None, "metrics": {}, "error": tail}
    metrics = summary["metrics"]
    if len(args.workload) == 1:
        metrics = {f"{args.workload[0]}.{name}": m for name, m in metrics.items()}
    summary["metrics"] = {name: m["value"] for name, m in metrics.items()}
    return summary


def iqr(values: list) -> float:
    """Distance between the quartiles, as ``run.py`` computes them."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdicts(pairs: list, metrics: list) -> list:
    """One row per ``(key, better)`` in ``metrics``, from the pairs'
    ``parent``/``change`` summaries.

    ``key`` is ``workload.metric``; ``better`` is ``"lower"`` or
    ``"higher"``.  A pair counts as a win only when both sides ran
    correctly and the change is strictly better.
    """
    rows = []
    n = len(pairs)
    for key, better in metrics:
        sign = 1.0 if better == "lower" else -1.0
        parent, change, wins = [], [], 0
        for pair in pairs:
            p = pair["parent"]["metrics"].get(key)
            c = pair["change"]["metrics"].get(key)
            if p is not None:
                parent.append(p)
            if c is not None:
                change.append(c)
            sound = all(
                pair[side]["correct"] is True and pair[side]["failed"] == 0
                for side in ("parent", "change")
            )
            if sound and p is not None and c is not None and sign * (p - c) > 0:
                wins += 1
        if parent and change:
            parent_median = statistics.median(parent)
            change_median = statistics.median(change)
            gain = sign * (parent_median - change_median)
            spread = iqr(parent)
            resolved = n > 0 and wins >= n - 1 and gain > spread
        else:
            parent_median = change_median = spread = float("nan")
            resolved = False
        rows.append({
            "metric": key,
            "better": better,
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": spread,
            "wins": wins,
            "pairs": n,
            "verdict": "resolved" if resolved else "unresolved",
        })
    return rows


def print_table(rows: list) -> None:
    print(f"{'metric':<34} {'parent':>10} {'change':>10} {'delta':>8} "
          f"{'parent IQR':>10} {'wins':>6}  verdict")
    for row in rows:
        parent, change = row["parent_median"], row["change_median"]
        delta = (change - parent) / parent if parent else float("nan")
        print(f"{row['metric']:<34} {parent:>10.4g} {change:>10.4g} {delta:>+8.1%} "
              f"{row['parent_iqr']:>10.4g} {row['wins']:>3}/{row['pairs']:<2}  "
              f"{row['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision or directory of the parent")
    parser.add_argument("change", help="git revision or directory of the change")
    parser.add_argument("--pairs", type=int, default=6, help="pairs of runs (default 6)")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every one in BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="run.py --repeats for every run (default 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the sides, pairs and verdicts here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.repeats < 1:
        parser.error("--pairs and --repeats must be at least 1")
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        checkouts, sources = {}, {}
        for side in ("parent", "change"):
            checkouts[side] = Path(scratch) / side
            try:
                sources[side] = materialise(getattr(args, side), checkouts[side])
            except (subprocess.CalledProcessError, OSError) as error:
                print(f"error: cannot copy {side} {getattr(args, side)!r}: {error}",
                      file=sys.stderr)
                return 2
        with open(checkouts["change"] / "BENCHMARK.json", encoding="utf-8") as stream:
            benchmark = json.load(stream)
        if not args.workload:
            args.workload = [w["name"] for w in benchmark["workloads"]]
        pairs = []
        for index in range(args.pairs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            pair = {"order": list(order)}
            for side in order:
                pair[side] = run_side(checkouts[side], args)
            pairs.append(pair)
            print(f"pair {index + 1}/{args.pairs} ({' first, '.join(order)} second) done",
                  file=sys.stderr)
    metrics = [
        (f"{workload}.{metric['name']}", metric["better"])
        for workload in args.workload
        for metric in benchmark["end_to_end"]
    ]
    rows = verdicts(pairs, metrics)
    print_table(rows)
    if args.out:
        document = {
            "sides": {side: {"argument": getattr(args, side), "source": sources[side]}
                      for side in ("parent", "change")},
            "settings": {"pairs": args.pairs, "repeats": args.repeats, "seed": args.seed,
                         "workloads": args.workload},
            "host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                     "machine": platform.machine()},
            "pairs": pairs,
            "verdicts": rows,
        }
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(document, stream, indent=1, sort_keys=True)
            stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
