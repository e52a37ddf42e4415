"""Sim-vs-model cross-validation: run both sides of one parameter grid.

The simulator and the closed-form predictors of
:mod:`repro.analytic.models` share one parameter space: a suite
scenario's keyword arguments map one-to-one onto its predictors'
parameter type (only ``n_clients`` renames to ``n_stations``).
:func:`run_crossval` exploits that — it expands a
:class:`~repro.exp.spec.CampaignSpec`, runs the simulator side through
the ordinary campaign engine (cached, resumable, parallel), evaluates
the analytic side at every grid point, and folds both into per-point
relative-error residuals judged against a declared
:class:`ToleranceContract`.  :data:`SUITES` declares each suite once.

Predictions are persisted next to the simulator runs: each one becomes a
store envelope under ``run_key("analytic:<predictor>", model_params, 0)``
— same hashing, same JSONL, so a resumed cross-validation reuses its
predictions exactly like its runs and the report can always say which
model record a residual was computed from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro._domain import Domain
from repro.analytic.models import predict, predictor_entry
from repro.exp.runner import CampaignReport, RunResult, run_campaign
from repro.exp.spec import CampaignSpec, canonical_params, run_key
from repro.exp.store import ResultStore

__all__ = [
    "SIM_TO_MODEL",
    "SUITES",
    "CrossvalMetric",
    "CrossvalPoint",
    "CrossvalReport",
    "CrossvalSuite",
    "DEFAULT_METRICS",
    "DEFAULT_TOLERANCE",
    "Residual",
    "ToleranceContract",
    "UNAP_METRICS",
    "model_overrides",
    "psm_crossval_spec",
    "run_crossval",
    "unap_crossval_spec",
]

#: Scenario parameter -> model parameter renames; everything else maps
#: by identical name (the shared-parameter-space contract).
SIM_TO_MODEL: Dict[str, str] = {"n_clients": "n_stations"}

#: Scenario parameters with no analytic counterpart: engine-managed or
#: affecting only presentation, never the modelled physics.
IGNORED_SIM_PARAMS = frozenset({"seed", "obs", "platform", "label"})


def model_overrides(sim_params: Mapping[str, Any], predictor: str) -> Dict[str, Any]:
    """Translate one grid point's scenario kwargs into overrides for
    ``predictor``'s parameter type.

    Raises on a scenario parameter the model does not understand — a
    silent drop would let the two sides of the comparison diverge on a
    parameter one of them never saw.
    """
    params_type = predictor_entry(predictor).params_type
    known = {f.name for f in dataclass_fields(params_type)}
    overrides: Dict[str, Any] = {}
    for key, value in sim_params.items():
        name = SIM_TO_MODEL.get(key, key)
        if name in known:
            overrides[name] = value
        elif key not in IGNORED_SIM_PARAMS:
            raise ValueError(
                f"scenario parameter {key!r} has no {params_type.__name__} "
                "counterpart; extend SIM_TO_MODEL"
            )
    return overrides


# ---------------------------------------------------------------------------
# Metrics and tolerances


def _sim_throughput_bps(record: Mapping[str, Any]) -> float:
    """Aggregate goodput of one run: delivered bytes over the window."""
    return float(record["bytes_received"]) * 8.0 / float(record["duration_s"])


def _sim_wnic_power_w(record: Mapping[str, Any]) -> float:
    return float(record["wnic_power_w"])


@dataclass(frozen=True)
class CrossvalMetric:
    """One compared quantity: a predictor field vs a sim-record reduction."""

    name: str
    predictor: str
    model_field: str
    sim_extract: Callable[[Mapping[str, Any]], float]


DEFAULT_METRICS: Tuple[CrossvalMetric, ...] = (
    CrossvalMetric(
        name="throughput_bps",
        predictor="psm-throughput",
        model_field="throughput_bps",
        sim_extract=_sim_throughput_bps,
    ),
    CrossvalMetric(
        name="wnic_power_w",
        predictor="psm-energy",
        model_field="wnic_power_w",
        sim_extract=_sim_wnic_power_w,
    ),
)


#: The μNap suite compares per-station WNIC power only: the scenario's
#: goodput is policy-independent by construction (μNap never defers a
#: station's own traffic), so power is where model and simulator can
#: actually disagree.
UNAP_METRICS: Tuple[CrossvalMetric, ...] = (
    CrossvalMetric(
        name="wnic_power_w",
        predictor="unap-energy",
        model_field="wnic_power_w",
        sim_extract=_sim_wnic_power_w,
    ),
)


@dataclass(frozen=True)
class ToleranceContract:
    """Declared agreement bounds: max relative error per metric.

    A metric missing from ``relative`` is reported but never judged.
    ``min_denominator`` guards the relative error against a ~zero
    simulator mean (both sides zero compares equal, not infinite).
    """

    relative: Mapping[str, float]
    min_denominator: float = 1e-9

    def __post_init__(self) -> None:
        limit = Domain(float, ge=0)
        for metric, value in self.relative.items():
            limit.check(f"ToleranceContract.relative[{metric!r}]", value)

    def limit_for(self, metric: str) -> Optional[float]:
        return self.relative.get(metric)

    def relative_error(self, sim: float, model: float) -> float:
        return abs(model - sim) / max(abs(sim), self.min_denominator)

    def describe(self) -> Dict[str, Any]:
        return {
            "relative": {k: float(v) for k, v in sorted(self.relative.items())},
            "min_denominator": self.min_denominator,
        }


#: The repo's agreement contract: model within 10 % of the simulator on
#: aggregate goodput and per-station WNIC power (validated headroom is
#: roughly 2x on the acceptance grid; see DESIGN.md).
DEFAULT_TOLERANCE = ToleranceContract(
    relative={"throughput_bps": 0.10, "wnic_power_w": 0.10}
)


@dataclass(frozen=True)
class Residual:
    """One metric's sim-vs-model comparison at one grid point."""

    metric: str
    sim: float
    model: float
    rel_err: float
    limit: Optional[float]

    @property
    def ok(self) -> bool:
        if self.limit is None:
            return True
        return math.isfinite(self.rel_err) and self.rel_err <= self.limit

    def as_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "sim": self.sim,
            "model": self.model,
            "rel_err": self.rel_err,
            "limit": self.limit,
            "ok": self.ok,
        }


@dataclass
class CrossvalPoint:
    """One grid point: sim mean across seeds vs the analytic prediction."""

    index: int
    params: Dict[str, Any]
    model_params: Dict[str, Any]
    seeds: List[int]
    residuals: List[Residual] = field(default_factory=list)
    #: Simulator runs at this point that ended in an error envelope.
    failed: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0 and bool(self.seeds) and all(
            r.ok for r in self.residuals
        )

    def violations(self) -> List[Residual]:
        return [r for r in self.residuals if not r.ok]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "params": canonical_params(self.params),
            "model_params": canonical_params(self.model_params),
            "seeds": list(self.seeds),
            "failed": self.failed,
            "ok": self.ok,
            "residuals": [r.as_dict() for r in self.residuals],
        }


@dataclass
class CrossvalReport:
    """Everything one cross-validation produced, ready to render."""

    spec: CampaignSpec
    contract: ToleranceContract
    metrics: Tuple[CrossvalMetric, ...]
    points: List[CrossvalPoint]
    campaign: CampaignReport
    #: Prediction envelopes newly persisted / served from the store.
    predictions_stored: int = 0
    predictions_cached: int = 0

    @property
    def ok(self) -> bool:
        return bool(self.points) and all(p.ok for p in self.points)

    def worst(self) -> Optional[Residual]:
        """The residual closest to (or furthest past) its limit."""
        judged = [
            r for p in self.points for r in p.residuals if r.limit is not None
        ]
        if not judged:
            return None
        return max(judged, key=lambda r: r.rel_err / r.limit)

    def violations(self) -> List[Tuple[CrossvalPoint, Residual]]:
        return [(p, r) for p in self.points for r in p.violations()]

    def as_payload(self) -> Dict[str, Any]:
        """JSON-ready artifact (deterministic for a given spec+code)."""
        return {
            "campaign": self.spec.describe(),
            "version": self.campaign.version,
            "contract": self.contract.describe(),
            "metrics": [
                {"name": m.name, "predictor": m.predictor} for m in self.metrics
            ],
            "ok": self.ok,
            "points": [p.as_dict() for p in self.points],
        }

    def table_rows(self) -> Tuple[List[str], List[List[Any]]]:
        """Headers + one row per grid point for the CLI table."""
        grid_keys = list(self.spec.grid_keys)
        headers = [*grid_keys, "seeds"]
        for metric in self.metrics:
            headers += [f"{metric.name} sim", "model", "err%"]
        headers.append("ok")
        rows: List[List[Any]] = []
        for point in self.points:
            row: List[Any] = [point.params.get(k, "") for k in grid_keys]
            row.append(len(point.seeds))
            by_name = {r.metric: r for r in point.residuals}
            for metric in self.metrics:
                residual = by_name.get(metric.name)
                if residual is None:
                    row += ["-", "-", "-"]
                else:
                    row += [
                        f"{residual.sim:.5g}",
                        f"{residual.model:.5g}",
                        f"{residual.rel_err * 100:.2f}",
                    ]
            row.append(point.ok)
            rows.append(row)
        return headers, rows


# ---------------------------------------------------------------------------
# Spec builder and driver


def psm_crossval_spec(
    name: str = "psm-crossval",
    n_stations: Sequence[int] = (1, 2),
    offered_load_bps: Sequence[float] = (128_000.0, 6_000_000.0),
    listen_interval: Sequence[int] = (1, 2),
    direction: str = "downlink",
    packet_bytes: int = 1000,
    first_seed: int = 0,
    n_seeds: int = 2,
    light_duration_s: float = 30.0,
    saturated_duration_s: float = 10.0,
    saturation_threshold_bps: float = 1_000_000.0,
) -> CampaignSpec:
    """The acceptance grid: n x offered load x listen interval, 2 seeds.

    Run length adapts per point (and is hashed, via ``derive``): light
    points run longer because Poisson arrival-count noise shrinks as
    ``1/sqrt(duration)`` — at 10 s a 128 kb/s point carries ~8 % noise,
    which would eat most of a 10 % tolerance before the model erred at
    all.  Saturated points are noise-free but simulate slowly, so they
    stay short.
    """
    return CampaignSpec(
        name=name,
        scenario="psm-crossval",
        grid={
            "n_clients": list(n_stations),
            "offered_load_bps": list(offered_load_bps),
            "listen_interval": list(listen_interval),
        },
        base={"direction": direction, "packet_bytes": packet_bytes},
        derive=lambda p: {
            "duration_s": (
                saturated_duration_s
                if p["offered_load_bps"] >= saturation_threshold_bps
                else light_duration_s
            )
        },
        seeds=[first_seed + i for i in range(n_seeds)],
    )


def unap_crossval_spec(
    name: str = "unap-crossval",
    n_stations: Sequence[int] = (4,),
    power_policy: Sequence[str] = ("unap", "cam"),
    offered_load_bps: float = 256_000.0,
    packet_bytes: int = 1000,
    rts_threshold_bytes: int = 500,
    duration_s: float = 10.0,
    first_seed: int = 0,
    n_seeds: int = 2,
) -> CampaignSpec:
    """The μNap acceptance grid: station count x power policy, 2 seeds.

    Sweeping ``power_policy`` over ("unap", "cam") validates both model
    branches against the *same* assembly — the CAM points pin down the
    overhearing baseline, the μNap points the nap savings on top of it.
    The load stays comfortably unsaturated: the model has no contention
    queueing, and a saturated air would drown the nap window term the
    suite exists to check.
    """
    return CampaignSpec(
        name=name,
        scenario="unap-hotspot",
        grid={
            "n_clients": list(n_stations),
            "power_policy": list(power_policy),
        },
        base={
            "offered_load_bps": offered_load_bps,
            "packet_bytes": packet_bytes,
            "rts_threshold_bytes": rts_threshold_bytes,
            "duration_s": duration_s,
        },
        seeds=[first_seed + i for i in range(n_seeds)],
    )


class CrossvalSuite(NamedTuple):
    """One sim-vs-model suite: its grid builder and the metrics it judges."""

    build: Callable[..., CampaignSpec]
    metrics: Tuple[CrossvalMetric, ...]


#: Every suite ``repro crossval --suite`` runs, by name.  A metric's
#: predictor fixes the model parameter type its grid translates into.
SUITES: Dict[str, CrossvalSuite] = {
    "psm": CrossvalSuite(psm_crossval_spec, DEFAULT_METRICS),
    "unap": CrossvalSuite(unap_crossval_spec, UNAP_METRICS),
}


def _store_prediction(
    store: ResultStore,
    predictor: str,
    record: Dict[str, Any],
    version: str,
    refresh: bool,
) -> bool:
    """Persist one prediction like a run envelope; True when newly written.

    The key hashes the *model* parameter space (the record's ``params``)
    under a ``analytic:`` pseudo-scenario, so predictions resume exactly
    like runs and can never collide with a simulator envelope.
    """
    scenario = f"analytic:{predictor}"
    key = run_key(scenario, record["params"], 0)
    if not refresh and store.get(key) is not None:
        return False
    store.put(
        key,
        {
            "scenario": scenario,
            "params": canonical_params(record["params"]),
            "seed": 0,
            "version": version,
            "record": record,
        },
    )
    return True


def run_crossval(
    spec: CampaignSpec,
    contract: ToleranceContract = DEFAULT_TOLERANCE,
    metrics: Sequence[CrossvalMetric] = DEFAULT_METRICS,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    refresh: bool = False,
) -> CrossvalReport:
    """Run ``spec`` through the simulator and the analytic models.

    The simulator side goes through :func:`repro.exp.runner.run_campaign`
    unchanged (caching, resume, worker pool, quarantine all apply); the
    analytic side evaluates each metric's predictor at the same grid
    point.  Every grid point is translated for every metric's predictor
    before the first simulator run, so a grid the models cannot take
    fails at once.  Residuals compare the prediction against the
    seed-mean of the simulator metric; a point with failed simulator
    runs fails the cross-validation outright.
    """
    points = spec.points()
    translated = [
        [model_overrides(params, metric.predictor) for metric in metrics]
        for params in points
    ]
    campaign = run_campaign(
        spec, store=store, jobs=jobs, refresh=refresh
    )
    n_seeds = len(spec.seeds)
    stored = 0
    cached = 0
    out: List[CrossvalPoint] = []
    for index, (params, overrides) in enumerate(zip(points, translated)):
        chunk: List[RunResult] = campaign.results[
            index * n_seeds : (index + 1) * n_seeds
        ]
        healthy = [r for r in chunk if r.ok]
        point = CrossvalPoint(
            index=index,
            params=dict(params),
            model_params={},
            seeds=[r.seed for r in healthy],
            failed=len(chunk) - len(healthy),
        )
        for metric, metric_overrides in zip(metrics, overrides):
            prediction = predict(metric.predictor, metric_overrides)
            point.model_params = prediction["params"]
            if store is not None:
                if _store_prediction(
                    store, metric.predictor, prediction, campaign.version,
                    refresh,
                ):
                    stored += 1
                else:
                    cached += 1
            model_value = float(prediction[metric.model_field])
            if healthy:
                sims = [metric.sim_extract(r.record) for r in healthy]
                sim_mean = sum(sims) / len(sims)
                rel_err = contract.relative_error(sim_mean, model_value)
            else:
                sim_mean = float("nan")
                rel_err = float("nan")
            point.residuals.append(
                Residual(
                    metric=metric.name,
                    sim=sim_mean,
                    model=model_value,
                    rel_err=rel_err,
                    limit=contract.limit_for(metric.name),
                )
            )
        out.append(point)
    return CrossvalReport(
        spec=spec,
        contract=contract,
        metrics=tuple(metrics),
        points=out,
        campaign=campaign,
        predictions_stored=stored,
        predictions_cached=cached,
    )
