"""Campaign specifications: declarative grids of scenario runs.

A :class:`CampaignSpec` names a registered scenario function, a set of
fixed base parameters, a parameter *grid* (each key swept over a list of
values) and a seed list.  :meth:`CampaignSpec.runs` expands it into an
ordered list of :class:`RunSpec` — one per (grid point, seed) — whose
order is deterministic: grid keys in declaration order, values in
declaration order, seeds innermost.  That order is the contract the
cache, the worker pool and the aggregator all rely on.

Every run has a *content hash* (:attr:`RunSpec.key`): the SHA-256 of the
canonical-JSON encoding of ``{scenario, params, seed, metrics}``.  The
hash is the run's identity in the on-disk result store, so re-invoking a
campaign reuses any run whose parameters are unchanged and recomputes
only what moved.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro._domain import SpecError, domain, validate
from repro.exp.grid import expand_grid


def canonical_params(value: Any) -> Any:
    """Normalise a parameter value for hashing (tuples become lists)."""
    if isinstance(value, tuple):
        return [canonical_params(v) for v in value]
    if isinstance(value, list):
        return [canonical_params(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical_params(v) for k, v in value.items()}
    return value


#: ``json.dumps`` with these options builds a fresh encoder per call.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False
)


def canonical_json(obj: Any) -> str:
    """Stable JSON encoding: sorted keys, no whitespace, ASCII only."""
    try:
        return _CANONICAL.encode(canonical_params(obj))
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"campaign parameters must be JSON-serialisable: {exc}"
        ) from exc


def _first_repeat(values: Sequence[Any]) -> Optional[Any]:
    """The first of ``values`` that repeats an earlier one as a run
    parameter (equal canonical JSON), or None.  A value with no JSON
    form is left to the spec or run that reads it."""
    seen = set()
    for value in values:
        try:
            text = canonical_json(value)
        except TypeError:
            continue
        if text in seen:
            return value
        seen.add(text)
    return None


def key_prefix(scenario: str, params: Mapping[str, Any], metrics: bool = False) -> str:
    """The head of a run's key JSON, shared by every seed of a grid point.

    Sorted, ``metrics``, ``params`` and ``scenario`` come before ``seed``
    and ``timeseries_interval_s``: a payload's JSON is this plus its tail.
    """
    return canonical_json(
        {"scenario": scenario, "params": dict(params), "metrics": bool(metrics)}
    )[:-1]


def run_key(
    scenario: str,
    params: Mapping[str, Any],
    seed: int,
    metrics: bool = False,
    timeseries_interval_s: Optional[float] = None,
    prefix: Optional[str] = None,
) -> str:
    """Content hash identifying one run in the result store.

    ``prefix`` is the point's :func:`key_prefix` when already encoded.
    The timeseries interval enters the hash only when sampling is on:
    turning telemetry off must leave every pre-existing key (and
    therefore every cached result) untouched.
    """
    if prefix is None:
        prefix = key_prefix(scenario, params, metrics)
    tail: Dict[str, Any] = {"seed": seed}
    if timeseries_interval_s is not None:
        tail["timeseries_interval_s"] = float(timeseries_interval_s)
    payload = prefix + "," + canonical_json(tail)[1:]
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """One concrete run: a scenario name, its kwargs, and a seed."""

    scenario: str
    params: Tuple[Tuple[str, Any], ...]
    seed: int
    collect_metrics: bool = False
    #: Sampling cadence for in-run timeseries (None = no sampling).
    #: Part of the hash when set — sampled runs schedule extra kernel
    #: events, so their records differ from unsampled ones.
    timeseries_interval_s: Optional[float] = None
    #: Index in the campaign's expansion order (not part of the hash).
    index: int = 0
    #: Human-readable label, e.g. ``sweep-bursts/20000`` (not hashed).
    label: str = ""
    #: The grid point's :func:`key_prefix`, shared by its seeds ("" = none).
    key_prefix: str = field(default="", compare=False, repr=False)

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)

    @cached_property
    def key(self) -> str:
        # Hashed once per spec: the runner reads it at the cache lookup,
        # the store write and the progress heartbeat.
        return run_key(
            self.scenario,
            dict(self.params),
            self.seed,
            self.collect_metrics,
            self.timeseries_interval_s,
            self.key_prefix or None,
        )


@dataclass
class CampaignSpec:
    """Declarative description of a whole campaign.

    Parameters
    ----------
    name:
        Campaign name; prefixes run labels and artifact files.
    scenario:
        A name registered in :mod:`repro.exp.scenarios`.
    grid:
        ``{param: [values...]}`` — every combination is run (declaration
        order of keys/values fixes the expansion order).
    base:
        Fixed keyword arguments applied to every run.
    seeds:
        Seeds replicated at every grid point (statistics are computed
        across them).
    derive:
        Optional ``fn(params) -> extra_params`` evaluated per grid point
        for parameters that are a deterministic function of the swept
        ones (e.g. a buffer sized from the burst).  Derived values are
        merged into the run's params and therefore into its hash.
    collect_metrics:
        Collect a per-run :class:`repro.obs.MetricsRegistry` snapshot in
        each worker; the aggregator can merge them per grid point.
    timeseries_interval_s:
        When set, every run samples an in-run timeseries at this cadence
        (simulated seconds); the runner streams each run's samples to
        ``timeseries/<run key>.jsonl`` in the result store.
    points_override:
        Optional explicit list of swept-coordinate dicts replacing the
        full cross product of ``grid`` (each entry must provide exactly
        the grid keys).  ``grid`` still declares the axes and their
        value order for labels, tables and CSV columns.  This is how
        surrogate-guided refinement dispatches only the interesting
        sub-grid (:func:`repro.analytic.surrogate.refine_campaign`).
    """

    name: str = domain(str, nonempty=True)
    scenario: str = domain(str)
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    base: Dict[str, Any] = field(default_factory=dict)
    seeds: Sequence[int] = domain(nonempty=True, default=(0,))
    derive: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None
    collect_metrics: bool = False
    timeseries_interval_s: Optional[float] = domain(
        float, gt=0, optional=True, default=None
    )
    points_override: Optional[Sequence[Dict[str, Any]]] = None

    def __post_init__(self) -> None:
        validate(self)
        repeat = _first_repeat(self.seeds)
        if repeat is not None:
            # Both copies would be one run key, simulated twice.
            raise SpecError(
                f"CampaignSpec.seeds must not repeat a value; got {repeat!r} twice"
            )
        if self.points_override is not None:
            expected = set(self.grid)
            for entry in self.points_override:
                if set(entry) != expected:
                    raise SpecError(
                        "points_override entries must provide exactly the "
                        f"grid keys {sorted(expected)}; got {sorted(entry)}"
                    )
            repeat = _first_repeat([dict(entry) for entry in self.points_override])
            if repeat is not None:
                raise SpecError(
                    "CampaignSpec.points_override must not repeat a point; "
                    f"got {repeat!r} twice"
                )
        for key, values in self.grid.items():
            if not values:
                raise SpecError(f"grid axis {key!r} has no values")
            repeat = _first_repeat(values)
            if repeat is not None:
                # Both copies would be the same run, simulated twice.
                raise SpecError(
                    f"CampaignSpec.grid[{key!r}] must not repeat a value; "
                    f"got {repeat!r} twice"
                )
            if key in self.base:
                raise SpecError(f"{key!r} is both a grid axis and a base param")
        for reserved in ("seed", "obs"):
            if reserved in self.grid or reserved in self.base:
                raise SpecError(
                    f"{reserved!r} is managed by the engine; "
                    "use `seeds` for replication"
                )

    @property
    def grid_keys(self) -> Tuple[str, ...]:
        return tuple(self.grid)

    def points(self) -> List[Dict[str, Any]]:
        """The expanded grid (base + swept + derived params per point)."""
        points: List[Dict[str, Any]] = []
        if self.points_override is not None:
            swept_points = [dict(entry) for entry in self.points_override]
        else:
            swept_points = expand_grid(self.grid)
        for swept in swept_points:
            params = dict(self.base)
            params.update(swept)
            if self.derive is not None:
                derived = self.derive(dict(params))
                overlap = set(derived) & set(params)
                if overlap:
                    raise SpecError(
                        f"derive() may not override {sorted(overlap)}"
                    )
                params.update(derived)
            points.append(params)
        return points

    def point_label(self, params: Mapping[str, Any]) -> str:
        """Label of one grid point: ``name/<swept values>``."""
        swept = "-".join(str(params[key]) for key in self.grid) or "point"
        return f"{self.name}/{swept}"

    def runs(self) -> List[RunSpec]:
        """Expand into the deterministic, ordered run list.

        A point's key prefix and label are built once for all its seeds.
        """
        runs: List[RunSpec] = []
        replicated = len(self.seeds) > 1
        for params in self.points():
            frozen = tuple(sorted(params.items()))
            prefix = key_prefix(self.scenario, params, self.collect_metrics)
            label = self.point_label(params)
            for seed in self.seeds:
                runs.append(
                    RunSpec(
                        scenario=self.scenario,
                        params=frozen,
                        seed=int(seed),
                        collect_metrics=self.collect_metrics,
                        timeseries_interval_s=self.timeseries_interval_s,
                        index=len(runs),
                        label=f"{label}/s{seed}" if replicated else label,
                        key_prefix=prefix,
                    )
                )
        return runs

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary of the spec (for artifact headers)."""
        payload = {
            "name": self.name,
            "scenario": self.scenario,
            "base": canonical_params(self.base),
            "grid": {k: canonical_params(list(v)) for k, v in self.grid.items()},
            "seeds": [int(s) for s in self.seeds],
            "collect_metrics": self.collect_metrics,
            "timeseries_interval_s": self.timeseries_interval_s,
        }
        if self.points_override is not None:
            payload["points_override"] = [
                canonical_params(dict(entry)) for entry in self.points_override
            ]
        return payload
