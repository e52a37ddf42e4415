"""Run hashing, campaign-spec expansion and the JSONL result store."""

import hashlib
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._domain import SpecError
from repro.exp.spec import CampaignSpec, canonical_json, canonical_params, run_key
from repro.exp.store import ResultStore


class TestRunKey:
    def test_key_independent_of_param_order(self):
        a = run_key("hotspot", {"x": 1, "y": 2}, seed=0)
        b = run_key("hotspot", {"y": 2, "x": 1}, seed=0)
        assert a == b

    def test_key_changes_with_every_identity_component(self):
        base = run_key("hotspot", {"x": 1}, seed=0)
        assert run_key("hotspot", {"x": 2}, seed=0) != base
        assert run_key("hotspot", {"x": 1}, seed=1) != base
        assert run_key("unscheduled", {"x": 1}, seed=0) != base
        assert run_key("hotspot", {"x": 1}, seed=0, metrics=True) != base

    def test_tuples_and_lists_hash_alike(self):
        assert run_key("h", {"ifs": ("wlan",)}, 0) == run_key(
            "h", {"ifs": ["wlan"]}, 0
        )

    def test_unserialisable_param_rejected(self):
        with pytest.raises(TypeError, match="JSON-serialisable"):
            run_key("h", {"fn": object()}, 0)

    def test_canonical_json_is_stable(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def whole_payload_key(run) -> str:
    """A run's key from its whole payload, encoded by ``json.dumps``."""
    payload = {
        "scenario": run.scenario,
        "params": dict(run.params),
        "seed": run.seed,
        "metrics": run.collect_metrics,
    }
    if run.timeseries_interval_s is not None:
        payload["timeseries_interval_s"] = float(run.timeseries_interval_s)
    text = json.dumps(
        canonical_params(payload),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e-7, 1e16]),
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), floats,
    st.text(max_size=4),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans()),
            inner,
            max_size=3,
        ),
    ),
    max_leaves=8,
)
param_names = st.text(min_size=1, max_size=5).filter(
    lambda name: name not in ("seed", "obs")
)


@st.composite
def campaigns(draw):
    names = draw(st.lists(param_names, unique=True, max_size=4))
    swept = draw(st.integers(0, len(names)))
    return CampaignSpec(
        name="keys",
        scenario=draw(
            st.one_of(st.text(min_size=1), st.sampled_from(['h"ot\\', "séance ☃"]))
        ),
        grid={
            # A repeated axis value is a SpecError (one run, run twice).
            name: draw(st.lists(values, min_size=1, max_size=2, unique_by=canonical_json))
            for name in names[:swept]
        },
        base={name: draw(values) for name in names[swept:]},
        seeds=draw(st.lists(
            st.one_of(st.integers(-(2**70), 2**70), st.just(2**63 + 1)),
            min_size=1, max_size=3,
        )),
        collect_metrics=draw(st.booleans()),
        timeseries_interval_s=draw(
            st.one_of(st.none(), st.floats(1e-9, 1e9), st.sampled_from([1e-7, 1e16]))
        ),
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(campaigns())
@example(CampaignSpec(
    name="keys",
    scenario='q"uo\\te ünï ☃',
    base={"nested": ({1: [True, None], False: {"x": -0.0}}, [1e-7, 1e16])},
    grid={"b": [True, None], "f": [-0.0, 1e16]},
    seeds=[-3, 2**63 + 5],
    collect_metrics=True,
    timeseries_interval_s=1e-7,
))
def test_every_run_key_hashes_its_whole_payload(spec):
    for run in spec.runs():
        assert run.key == whole_payload_key(run)


class TestCampaignSpec:
    def spec(self, **overrides):
        kwargs = dict(
            name="c",
            scenario="hotspot",
            base={"duration_s": 5.0},
            grid={"burst_bytes": [10, 20], "n_clients": [1, 2]},
            seeds=[0, 1],
        )
        kwargs.update(overrides)
        return CampaignSpec(**kwargs)

    def test_expansion_order_grid_major_seeds_inner(self):
        runs = self.spec().runs()
        assert len(runs) == 8
        assert [r.index for r in runs] == list(range(8))
        # First grid point with both seeds, then the next point.
        assert runs[0].kwargs["burst_bytes"] == 10
        assert (runs[0].seed, runs[1].seed) == (0, 1)
        assert runs[1].kwargs == runs[0].kwargs
        assert runs[2].kwargs["n_clients"] == 2

    def test_labels_name_swept_values_and_seed(self):
        runs = self.spec().runs()
        assert runs[0].label == "c/10-1/s0"
        assert runs[1].label == "c/10-1/s1"
        single = self.spec(seeds=[7]).runs()
        assert single[0].label == "c/10-1"  # seed suffix only when >1 seed

    def test_derived_params_enter_kwargs_and_hash(self):
        derived = self.spec(
            derive=lambda p: {"client_buffer_bytes": p["burst_bytes"] * 2}
        )
        runs = derived.runs()
        assert runs[0].kwargs["client_buffer_bytes"] == 20
        assert runs[0].key != self.spec().runs()[0].key

    def test_derive_may_not_override(self):
        bad = self.spec(derive=lambda p: {"burst_bytes": 0})
        with pytest.raises(ValueError, match="override"):
            bad.runs()

    def test_validation(self):
        with pytest.raises(ValueError, match="CampaignSpec.seeds must be non-empty"):
            self.spec(seeds=[])
        with pytest.raises(ValueError, match="no values"):
            self.spec(grid={"x": []})
        with pytest.raises(ValueError, match="both a grid axis"):
            self.spec(base={"burst_bytes": 1})
        with pytest.raises(ValueError, match="managed by the engine"):
            self.spec(base={"seed": 1, "duration_s": 5.0})

    def test_repeated_axis_value_rejected(self):
        # Both copies would be one run key, simulated twice.
        with pytest.raises(
            SpecError,
            match=r"CampaignSpec.grid\['n_clients'\] must not repeat a value; got 1 twice",
        ):
            self.spec(grid={"burst_bytes": [10, 20], "n_clients": [1, 2, 1]})
        # Run-key identity: a tuple repeats the equal list.
        with pytest.raises(SpecError, match=r"got \('wlan',\) twice"):
            self.spec(grid={"interfaces": [["wlan"], ("wlan",)]})
        # Values a run key tells apart are distinct.
        assert len(self.spec(grid={"x": [1, 1.0, True]}).runs()) == 6

    def test_repeated_override_point_rejected(self):
        # The same point in another key order is still the same run.
        repeat = {"n_clients": 1, "burst_bytes": 10}
        with pytest.raises(
            SpecError,
            match="CampaignSpec.points_override must not repeat a point; got "
            + re.escape(repr(repeat)) + " twice",
        ):
            self.spec(points_override=[
                {"burst_bytes": 10, "n_clients": 1},
                {"burst_bytes": 10, "n_clients": 2},
                repeat,
            ])

    def test_describe_is_json_ready(self):
        text = json.dumps(self.spec().describe())
        assert "burst_bytes" in text


class TestResultStore:
    def envelope(self, n):
        return {"record": {"wnic_power_w": n}, "seed": n}

    def test_roundtrip_and_persistence(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            assert store.get("k1") is None
            store.put("k1", self.envelope(1))
            assert store.get("k1")["record"] == {"wnic_power_w": 1}
        with ResultStore(tmp_path / "s") as reopened:
            assert len(reopened) == 1
            assert "k1" in reopened
            assert reopened.get("k1")["record"]["wnic_power_w"] == 1

    def test_last_write_wins_file_stays_append_only(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.put("k", self.envelope(1))
            store.put("k", self.envelope(2))
            path = store.path
        assert len(open(path).readlines()) == 2
        with ResultStore(tmp_path / "s") as reopened:
            assert reopened.get("k")["record"]["wnic_power_w"] == 2

    def test_truncated_trailing_line_survives(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.put("k1", self.envelope(1))
            store.put("k2", self.envelope(2))
            path = store.path
        # Simulate a crash mid-append: chop the last line in half.
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) - 17])
        with ResultStore(tmp_path / "s") as recovered:
            assert recovered.get("k1")["record"]["wnic_power_w"] == 1
            assert recovered.get("k2") is None
            assert recovered.skipped_lines == 1
            # The store remains writable after recovery.
            recovered.put("k2", self.envelope(2))
        with ResultStore(tmp_path / "s") as healed:
            assert healed.get("k2")["record"]["wnic_power_w"] == 2
            assert healed.skipped_lines == 1

    def test_put_after_close_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.put("k", self.envelope(0))
