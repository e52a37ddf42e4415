"""Import graph: lazy namespaces behave like eager ones, and campaign
paths load only the modules they use.

Most package ``__init__`` modules resolve their re-exported names on
first use (:mod:`repro._namespace`).  Whatever the package, a name in
``__all__`` must be the very object its submodule defines, ``dir()``
and star-imports must see every name, submodules must be reachable as
attributes, and a registry must be complete whichever name loaded it.

A campaign served from its store, and every reader of its records,
must not load the simulator; a cold campaign's parent leaves the
scenario stack to the pool workers that run it.  Import checks run in
a fresh interpreter, since this test process has long since imported
everything.
"""

import importlib
import json
import pkgutil
import subprocess
import sys
import textwrap
import types

import pytest

import repro
from repro.exp import CampaignSpec, ResultStore, run_campaign

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)

#: Packages only a run that simulates needs.
SIMULATOR = (
    "repro.sim", "repro.phy", "repro.mac", "repro.build",
    "repro.apps", "repro.net", "repro.devices",
)

SPEC = dict(
    name="budget",
    scenario="hotspot",
    base={"duration_s": 5.0},
    grid={"n_clients": [1, 2]},
    seeds=[0, 1],
)

#: SPEC's run keys.  A key is a stored result's identity, so any change
#: to its bytes orphans every existing store.
SPEC_KEYS = [
    "5e1945a874d999249a5f7171263330c5a3c0b1445ffc5ac461d72482e979cfe7",
    "3baac59a8f3dfbce30e04052d9b8f875fb474274dc1099bda79ecc3b6de229df",
    "6cad059a008bf0bb7d5f214a48070aa19732537fc1fc16acd36f416d5660d741",
    "38d737a1b1e64cc3b0a802f024b3c426e804b6bab7d14605994fb9e6822f0b61",
]


def submodules(package: types.ModuleType):
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"{package.__name__}.{info.name}")


def run_fresh(source: str, *args: str) -> dict:
    """Run ``source`` in a fresh interpreter; it prints one JSON line last."""
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source), *args],
        check=True, capture_output=True, text=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_are_their_submodules_objects(name):
    package = importlib.import_module(name)
    bindings = {}
    for module in submodules(package):
        for attr, value in vars(module).items():
            bindings.setdefault(attr, []).append(value)
    lazy = getattr(package, "__getattr__", None)
    for attr in package.__all__:
        value = getattr(package, attr)
        defined = bindings.get(attr, [])
        assert all(other is value for other in defined), attr
        if defined and lazy is not None:
            assert lazy(attr) is value, attr
        elif not defined:
            # Only names the package's own __init__ defines.
            assert attr in vars(package), attr


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_covers_all(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_all(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    package = sys.modules[name]
    for attr in package.__all__:
        assert namespace[attr] is getattr(package, attr)


@pytest.mark.parametrize("name", PACKAGES)
def test_submodules_resolve_as_attributes(name):
    package = importlib.import_module(name)
    for module in submodules(package):
        child = module.__name__.rsplit(".", 1)[1]
        if child in package.__all__:
            continue  # ``repro.exp.aggregate`` is the function
        assert getattr(package, child) is module
        lazy = getattr(package, "__getattr__", None)
        if lazy is not None:
            assert lazy(child) is module


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError) as info:
        package.no_such_name
    assert str(info.value) == f"module {name!r} has no attribute 'no_such_name'"


def test_name_shared_with_its_submodule_stays_the_export():
    result = run_fresh("""
        import json
        import repro.exp.aggregate
        from repro.exp import aggregate
        print(json.dumps({"function": callable(aggregate)}))
    """)
    assert result == {"function": True}


FULL_IMPORT = """
    import importlib, json, pkgutil, repro

    def load_everything():
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
"""


def test_analytic_models_load_no_mac_stations():
    # The closed-form models share the PSM defaults through the
    # dependency-free frames module, not the station implementations.
    result = run_fresh("""
        import json
        import sys

        import repro.analytic.models
        print(json.dumps(sorted(
            name for name in ("repro.mac.psm", "repro.mac.dcf")
            if name in sys.modules
        )))
    """)
    assert result == []


@pytest.mark.parametrize(
    "package, registry",
    [
        ("repro.mac", "power_policy_names()"),
        ("repro.apps", "traffic.traffic_kinds()"),
        ("repro.exp", "scenario_names()"),
    ],
)
def test_registry_complete_from_its_package_alone(package, registry):
    result = run_fresh(FULL_IMPORT + f"""
    import {package} as package
    first = package.{registry}
    load_everything()
    print(json.dumps({{"first": first, "full": package.{registry}}}))
    """)
    assert result["first"]
    assert result["first"] == result["full"]


def test_run_keys_are_pinned():
    assert [run.key for run in CampaignSpec(**SPEC).runs()] == SPEC_KEYS


def test_warm_campaign_and_record_readers_load_no_simulator(tmp_path):
    store = ResultStore(str(tmp_path))
    try:
        run_campaign(CampaignSpec(**SPEC), store=store)
    finally:
        store.close()

    result = run_fresh("""
        import json
        import sys

        from repro.exp import (
            CampaignSpec, ResultStore, aggregate, campaign_payload,
            dump_json, run_campaign,
        )
        from repro.core.outcome import VOLATILE_TIMING_FIELDS

        store = ResultStore(sys.argv[1])
        try:
            report = run_campaign(
                CampaignSpec(**json.loads(sys.argv[2])), store=store, jobs=2
            )
        finally:
            store.close()
        dump_json(campaign_payload(report, aggregate(report.results)))
        print(json.dumps({
            "cached": report.cached,
            "executed": report.executed,
            "loaded": sorted(sys.modules),
        }))
    """, str(tmp_path), json.dumps(SPEC))

    assert (result["cached"], result["executed"]) == (4, 0)
    loaded = result["loaded"]
    assert "multiprocessing" not in loaded
    assert "importlib.metadata" not in loaded
    assert [
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in SIMULATOR)
    ] == []


def test_cold_parallel_parent_stays_lean_and_matches_serial(tmp_path):
    result = run_fresh("""
        import json
        import os
        import sys

        from repro.exp import CampaignSpec, ResultStore, run_campaign

        def campaign(jobs):
            directory = os.path.join(sys.argv[1], f"jobs{jobs}")
            store = ResultStore(directory)
            order = []
            try:
                report = run_campaign(
                    CampaignSpec(**json.loads(sys.argv[2])), store=store,
                    jobs=jobs, on_run=lambda run, cached: order.append(run.key),
                )
            finally:
                store.close()
            with open(store.path, "rb") as stream:
                stored = stream.read().decode("utf-8")
            return report.records(), stored, order

        parallel = campaign(2)
        build_loaded = "repro.build" in sys.modules
        serial = campaign(1)
        print(json.dumps({
            "build_loaded": build_loaded,
            "parallel": parallel,
            "serial": serial,
        }))
    """, str(tmp_path), json.dumps(SPEC))

    assert result["build_loaded"] is False
    records, stored, order = result["parallel"]
    assert len(records) == len(order) == 4
    assert result["parallel"] == result["serial"]
