"""Import graph: lazy namespaces behave like eager ones, and campaign,
world and CLI paths load only the modules they use.

Most package ``__init__`` modules resolve their re-exported names on
first use (:mod:`repro._namespace`).  Whatever the package, a name in
``__all__`` must be the very object its submodule defines, ``dir()``
and star-imports must see every name, submodules must be reachable as
attributes, and a registry must be complete whichever name loaded it.

A campaign served from its store, and every reader of its records,
must not load the simulator; a cold campaign's parent leaves the
scenario stack to the pool workers that run it.  A packet-level MAC
world loads no Hotspot, fault or campaign module, and ``repro
--version`` loads no simulator.  Import checks run in a fresh
interpreter, since this test process has long since imported
everything.  The CLI's help and invalid-choice output are pinned
against snapshots in ``tests/cli_snapshots``.
"""

import ast
import importlib
import json
import os
import pathlib
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


def loaded_under(loaded, prefixes):
    """The names in ``loaded`` that are one of ``prefixes`` or inside one."""
    return [
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    ]


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


def test_no_export_shares_a_submodule_name():
    # Importing such a submodule would rebind the package attribute
    # from the export to the module.
    shared = []
    for package, names in namespace_tables().items():
        children = {
            info.name
            for info in pkgutil.iter_modules(importlib.import_module(package).__path__)
        }
        shared += [f"{package}.{name}" for name in names if name in children]
    assert not shared, "exported under a submodule's name: " + ", ".join(shared)


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


def test_exp_never_imports_the_analytic_layer():
    # The analytic layer builds on the campaign engine (crossval runs
    # campaigns, the surrogate refines specs), never the other way round.
    offenders = []
    for path in sorted((ROOT / "src/repro/exp").glob("**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if any(m.split(".")[:2] == ["repro", "analytic"] for m in modules):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, "repro.exp imports repro.analytic at " + ", ".join(
        offenders
    )


@pytest.mark.parametrize(
    "package, registry",
    [
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
    assert loaded_under(loaded, SIMULATOR) == []


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


ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where a re-exported name counts as used: the library itself, the
#: survey benches, examples and scripts, and the test-only reference
#: implementations that pin a production interface.
USER_FILES = sorted(
    path
    for pattern in (
        "src/repro/**/*.py", "benchmarks/**/*.py", "examples/**/*.py",
        "scripts/**/*.py", "tests/**/*_reference.py",
    )
    for path in ROOT.glob(pattern)
    if path.name != "__init__.py"
)


def namespace_tables():
    """``{package: names}`` of every ``lazy_namespace`` table in the tree."""
    tables = {}
    for init in sorted((ROOT / "src/repro").glob("**/__init__.py")):
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_namespace"
            ):
                package = ".".join(init.parent.relative_to(ROOT / "src").parts)
                tables[package] = [
                    name.value
                    for names in node.args[1].values
                    for name in names.elts
                ]
    return tables


def referenced_names(path):
    """Names ``path`` reads: loads, attributes and imports.  A binding
    such as ``NAME = ...`` is a definition, not a use."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_namespace_export_has_a_user():
    tables = namespace_tables()
    assert "repro.mac" in tables and "repro.sim" in tables
    used = set().union(*map(referenced_names, USER_FILES))
    dead = [
        f"{package}.{name}"
        for package, names in tables.items()
        for name in names
        if name not in used
    ]
    assert not dead, "re-exported with no user: " + ", ".join(dead)


def test_jsonio_loads_no_other_campaign_module():
    loaded = run_fresh("""
        import json
        import sys

        import repro.exp.jsonio
        print(json.dumps({"loaded": sorted(sys.modules)}))
    """)["loaded"]
    assert loaded_under(loaded, ["repro.exp"]) == ["repro.exp", "repro.exp.jsonio"]


#: Modules no packet-level MAC world (psm, μNap) builds or runs.
NOT_MAC_WORLD = (
    "repro.core.server", "repro.core.client", "repro.core.interfaces",
    "repro.faults", "repro.mac.bluetooth",
)


@pytest.mark.parametrize(
    "preset, unused",
    [
        ("psm_baseline_world", NOT_MAC_WORLD + ("repro.mac.spatial", "repro.mac.powersave")),
        ("unap_hotspot_world", NOT_MAC_WORLD),
    ],
)
def test_mac_world_loads_only_its_stack(preset, unused):
    # As a benchmark child does: the JSON writer, then build and run.
    loaded = run_fresh(f"""
        import json
        import sys

        import repro.exp.jsonio
        from repro.build import presets
        from repro.build.builder import WorldBuilder

        WorldBuilder(presets.{preset}(n_clients=2, duration_s=1.0)).run()
        print(json.dumps({{"loaded": sorted(sys.modules)}}))
    """)["loaded"]
    assert loaded_under(loaded, unused) == []
    assert loaded_under(loaded, ["repro.exp"]) == ["repro.exp", "repro.exp.jsonio"]


def test_cli_version_loads_no_simulator():
    loaded = run_fresh("""
        import json
        import runpy
        import sys

        sys.argv = ["repro", "--version"]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit:
            pass
        print(json.dumps({"loaded": sorted(sys.modules)}))
    """)["loaded"]
    assert loaded_under(
        loaded, SIMULATOR + ("repro.analytic", "repro.exp.runner")
    ) == []


SNAPSHOTS = ROOT / "tests" / "cli_snapshots"

#: ``repro`` and every subcommand, as ``help-<name>.txt`` names them.
HELP_PAGES = [
    "repro", "fig1", "fig2", "sweep-schedulers", "sweep-bursts", "campaign",
    "analytic", "crossval", "report", "fleet", "scenarios", "trace",
]

#: ``invalid-<name>.txt``: one bad value for each registry-backed choice.
INVALID_CHOICES = {
    "command": ["nope"],
    "fig2-scheduler": ["fig2", "--scheduler", "nope"],
    "campaign-scenario": ["campaign", "--scenario", "nope"],
    "scenarios-scenario": ["scenarios", "--scenario", "nope"],
    "crossval-suite": ["crossval", "--suite", "nope"],
    "crossval-surrogate-metric": ["crossval", "--surrogate-metric", "nope"],
    "crossval-surrogate-mode": ["crossval", "--surrogate-mode", "nope"],
}


def cli(argv):
    """``python -m repro *argv`` on an 80-column terminal."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=dict(os.environ, COLUMNS="80"),
    )


def same_layout(text):
    """``text`` with what argparse words differently by Python version
    put back as 3.11 words it: 3.10 heads the options "optional
    arguments", and newer versions list invalid choices unquoted."""
    text = text.replace("optional arguments:", "options:")
    head, sep, choices = text.partition("(choose from ")
    return head + sep + choices.replace("'", "")


needs_snapshot_layout = pytest.mark.skipif(
    sys.version_info >= (3, 13),
    reason="argparse lays out help differently from Python 3.13 on",
)


@needs_snapshot_layout
@pytest.mark.parametrize("page", HELP_PAGES)
def test_help_matches_its_snapshot(page):
    completed = cli(["--help"] if page == "repro" else [page, "--help"])
    assert completed.returncode == 0, completed.stderr
    expected = (SNAPSHOTS / f"help-{page}.txt").read_text(encoding="utf-8")
    assert same_layout(completed.stdout) == same_layout(expected)


@needs_snapshot_layout
@pytest.mark.parametrize("name", sorted(INVALID_CHOICES))
def test_invalid_choice_matches_its_snapshot(name):
    completed = cli(INVALID_CHOICES[name])
    assert (completed.returncode, completed.stdout) == (2, "")
    expected = (SNAPSHOTS / f"invalid-{name}.txt").read_text(encoding="utf-8")
    assert same_layout(completed.stderr) == same_layout(expected)
