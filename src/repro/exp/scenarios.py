"""Scenario registry: the names a campaign spec can refer to.

Campaign specs reference scenarios *by name* so that a run is fully
described by JSON-serialisable data (name + params + seed) — that is
what makes the content hash and the worker-pool handoff possible.  The
registered callable takes the run's params as keyword arguments plus
``seed`` and ``obs``, and returns a
:class:`repro.core.outcome.ScenarioResult` (anything with a
``summary_record()`` method works).

Every built-in scenario is a :mod:`repro.build.presets` *spec factory*
mapping keyword arguments onto a declarative
:class:`~repro.build.WorldSpec`; its runnable is derived from the
factory as ``WorldBuilder(factory(**params, seed=seed)).run(obs=obs)``.
The factory is also what lets ``repro scenarios`` introspect every
scenario's parameters and defaults without running anything, and lets
campaign grids sweep structural parameters (interface sets, traffic
mixes) rather than only scalars.  Adding a scenario takes one preset
plus one :func:`register_scenario` line.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.build import presets
from repro.build.builder import WorldBuilder

ScenarioFn = Callable[..., object]

#: Parameters the engine manages; never part of a scenario's sweepable set.
_ENGINE_PARAMS = ("seed", "obs")


@dataclass(frozen=True)
class ScenarioParameter:
    """One sweepable scenario parameter and its default."""

    name: str
    default: Any = inspect.Parameter.empty
    annotation: str = ""

    @property
    def required(self) -> bool:
        return self.default is inspect.Parameter.empty

    def default_repr(self) -> str:
        return "<required>" if self.required else repr(self.default)

    def describe(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"name": self.name, "required": self.required}
        if not self.required:
            payload["default"] = _json_safe(self.default)
        if self.annotation:
            payload["annotation"] = self.annotation
        return payload


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario: runnable fn + optional spec factory."""

    name: str
    fn: ScenarioFn
    #: The :mod:`repro.build.presets` factory ``fn`` is derived from;
    #: introspection reads it (it has no ``obs`` plumbing and is the
    #: declarative source of truth for defaults).
    spec_factory: Optional[Callable[..., object]] = None
    description: str = ""
    _parameters: List[ScenarioParameter] = field(default_factory=list)

    def __post_init__(self) -> None:
        target = self.spec_factory or self.fn
        for param in inspect.signature(target).parameters.values():
            if param.name in _ENGINE_PARAMS:
                continue
            if param.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            annotation = ""
            if param.annotation is not inspect.Parameter.empty:
                annotation = (
                    param.annotation
                    if isinstance(param.annotation, str)
                    else getattr(param.annotation, "__name__", str(param.annotation))
                )
            self._parameters.append(
                ScenarioParameter(
                    name=param.name,
                    default=param.default,
                    annotation=annotation,
                )
            )

    @property
    def parameters(self) -> List[ScenarioParameter]:
        return list(self._parameters)

    def describe(self) -> Dict[str, Any]:
        """JSON-ready entry summary (``repro scenarios --json``)."""
        return {
            "name": self.name,
            "description": self.description,
            "declarative": self.spec_factory is not None,
            "parameters": [p.describe() for p in self._parameters],
        }


def _json_safe(value: Any) -> Any:
    """Defaults as JSON-friendly values (tuples → lists, objects → repr)."""
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _first_doc_line(fn: ScenarioFn) -> str:
    doc = inspect.getdoc(fn) or ""
    return doc.splitlines()[0].strip() if doc else ""


_SCENARIOS: Dict[str, ScenarioEntry] = {}


def _preset_runner(spec_factory: Callable[..., object]) -> ScenarioFn:
    """The runnable a spec factory implies: build its world, run it."""

    def run(seed: int = 0, obs=None, **params: Any) -> object:
        return WorldBuilder(spec_factory(**params, seed=seed)).run(obs=obs)

    return run


def register_scenario(
    name: str,
    fn: Optional[ScenarioFn] = None,
    spec_factory: Optional[Callable[..., object]] = None,
    description: Optional[str] = None,
) -> None:
    """Register a scenario under ``name`` (idempotent for the same callables).

    ``spec_factory`` is a :mod:`repro.build.presets`-style function
    returning a WorldSpec; without an explicit ``fn`` the runnable is
    derived from it, so a built-in scenario is one preset plus one
    registration.  ``fn`` alone registers a hand-written runnable.
    ``description`` defaults to the first docstring line of the factory
    (or of ``fn`` when there is none).
    """
    if fn is None and spec_factory is None:
        raise TypeError(f"scenario {name!r} needs a fn or a spec_factory")
    existing = _SCENARIOS.get(name)
    if existing is not None and not (
        existing.spec_factory is spec_factory
        and (fn is None or fn is existing.fn)
    ):
        raise ValueError(f"scenario {name!r} already registered")
    _SCENARIOS[name] = ScenarioEntry(
        name=name,
        fn=fn if fn is not None else _preset_runner(spec_factory),
        spec_factory=spec_factory,
        description=(
            description
            if description is not None
            else _first_doc_line(spec_factory or fn)
        ),
    )


def get_scenario(name: str) -> ScenarioFn:
    return scenario_entry(name).fn


def scenario_entry(name: str) -> ScenarioEntry:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        ) from None


def scenario_entries() -> List[ScenarioEntry]:
    return [_SCENARIOS[name] for name in scenario_names()]


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


def _register_builtins() -> None:
    register_scenario("hotspot", spec_factory=presets.hotspot_world)
    register_scenario("faulty-hotspot", spec_factory=presets.faulty_hotspot_world)
    register_scenario("unscheduled", spec_factory=presets.unscheduled_world)
    register_scenario(
        "psm-baseline",
        spec_factory=presets.psm_baseline_world,
        description=(
            "802.11 PSM on the packet MAC — when a standard beacon/TIM "
            "doze cycle is the right power-saving technique"
        ),
    )
    register_scenario("psm-crossval", spec_factory=presets.psm_crossval_world)
    register_scenario(
        "unap-hotspot",
        spec_factory=presets.unap_hotspot_world,
        description=(
            "μNap micro-sleeps through overheard NAV reservations — when "
            "traffic is too chatty for PSM but the air is busy with "
            "other stations' exchanges"
        ),
    )
    register_scenario(
        "pamas",
        spec_factory=presets.pamas_world,
        description=(
            "PAMAS battery-level-driven independent sleep — when node "
            "lifetime matters more than reachability and there is no "
            "coordinator to ask"
        ),
    )
    register_scenario(
        "ecmac",
        spec_factory=presets.ecmac_world,
        description=(
            "EC-MAC centrally scheduled doze windows — when a base "
            "station can broadcast exact transmission times and "
            "contention (and its energy waste) should be designed out"
        ),
    )
    register_scenario("fleet-hotspot", spec_factory=presets.fleet_hotspot_world)
    register_scenario("city-grid", spec_factory=presets.city_grid_world)


_register_builtins()
