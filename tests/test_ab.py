"""``scripts/ab.py``: the verdict over pairs of benchmark runs."""

import argparse
import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

KEY = "psm-downlink.ms_per_sta_s"


def _side(value, correct=True, failed=0):
    return {"correct": correct, "failed": failed, "metrics": {KEY: value}}


def _pairs(parent, change):
    return [
        {"parent": _side(p), "change": _side(c)} for p, c in zip(parent, change)
    ]


def _row(pairs, better="lower"):
    (row,) = ab.verdicts(pairs, [(KEY, better)])
    return row


def test_a_clear_gain_in_every_pair_resolves():
    row = _row(_pairs([13.2, 13.6, 13.9, 13.5, 13.7, 13.4], [11.0, 11.3, 11.2, 11.4, 11.1, 11.2]))
    assert row["wins"] == 6 and row["pairs"] == 6
    assert row["parent_median"] == pytest.approx(13.55)
    assert row["change_median"] == pytest.approx(11.2)
    assert row["verdict"] == "resolved"


def test_one_lost_pair_of_n_still_resolves_two_do_not():
    parent = [10.0, 10.1, 10.2, 10.1, 10.0, 10.2]
    one_lost = [9.0, 9.1, 10.5, 9.0, 9.1, 9.0]
    assert _row(_pairs(parent, one_lost))["wins"] == 5
    assert _row(_pairs(parent, one_lost))["verdict"] == "resolved"
    two_lost = [9.0, 9.1, 10.5, 10.6, 9.1, 9.0]
    assert _row(_pairs(parent, two_lost))["wins"] == 4
    assert _row(_pairs(parent, two_lost))["verdict"] == "unresolved"


def test_a_gain_inside_the_parent_iqr_is_unresolved():
    parent = [10.0, 12.0, 10.0, 12.0]
    change = [9.9, 11.9, 9.9, 11.9]  # wins every pair, by less than the IQR
    row = _row(_pairs(parent, change))
    assert row["wins"] == 4
    assert row["parent_iqr"] == pytest.approx(2.0)
    assert row["verdict"] == "unresolved"


def test_higher_is_better_flips_the_direction():
    parent = [100.0, 101.0, 100.5]
    assert _row(_pairs(parent, [120.0, 121.0, 119.0]), "higher")["verdict"] == "resolved"
    assert _row(_pairs(parent, [80.0, 81.0, 79.0]), "higher")["wins"] == 0


def test_a_tie_is_not_a_win():
    assert _row(_pairs([5.0, 5.0], [5.0, 5.0]))["wins"] == 0


def test_a_failed_side_loses_the_pair():
    pairs = _pairs([10.0, 10.0, 10.0], [8.0, 8.0, 8.0])
    pairs[0]["change"]["failed"] = 1
    pairs[1]["parent"]["correct"] = False
    row = _row(pairs)
    assert row["wins"] == 1 and row["verdict"] == "unresolved"


def test_no_samples_is_unresolved():
    pairs = [{"parent": {"correct": False, "failed": None, "metrics": {}},
              "change": _side(1.0)}]
    row = _row(pairs)
    assert math.isnan(row["parent_median"]) and row["verdict"] == "unresolved"


def test_iqr_matches_run_py_quartiles():
    assert ab.iqr([1.0]) == 0.0
    assert ab.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0)


def test_runs_write_and_read_no_bytecode(tmp_path, monkeypatch):
    """Every run.py child runs with PYTHONDONTWRITEBYTECODE=1 from a copy
    that holds no bytecode, as a fresh checkout of the benchmark does."""
    side = tmp_path / "side"
    for part in ("src/pkg", "benchmarks", "src/pkg/__pycache__"):
        (side / part).mkdir(parents=True)
    (side / "src/pkg/mod.py").write_text("VALUE = 1\n")
    (side / "benchmarks/bench.py").write_text("VALUE = 2\n")
    (side / "src/pkg/__pycache__/mod.cpython-311.pyc").write_bytes(b"stale")
    calls = []

    def fake_run(command, **kwargs):
        calls.append((command, kwargs))
        summary = {"correct": True, "failed": 0,
                   "metrics": {"ms_per_sta_s": {"value": 1.0, "unit": "ms/sta-s"}}}
        return ab.subprocess.CompletedProcess(command, 0, json.dumps(summary) + "\n", "")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    checkout = tmp_path / "copy"
    assert ab.materialise(str(side), checkout) == f"directory {side}"
    assert calls == []  # nothing is compiled
    assert sorted(p.name for p in checkout.rglob("*")) == [
        "bench.py", "benchmarks", "mod.py", "pkg", "src"
    ]
    args = argparse.Namespace(repeats=2, seed=3, workload=["psm-downlink"])
    summary = ab.run_side(checkout, args)
    assert summary["metrics"] == {KEY: 1.0}
    ((command, kwargs),) = calls
    assert command[1:] == [
        "benchmarks/e2e/run.py", "--trace", "0", "--repeats", "2", "--seed", "3",
        "--workload", "psm-downlink",
    ]
    assert kwargs["cwd"] == checkout
    assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
