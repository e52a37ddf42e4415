"""Surrogate-guided grid refinement: model first, simulate the interesting part.

A campaign grid is usually mostly flat: broad sweeps spend simulator
hours confirming that nothing happens between two plateaus.  The
closed-form predictors evaluate the whole grid in microseconds, so they
can act as a *surrogate screen*: score every point by how interesting
the model thinks it is, keep the top fraction, and dispatch only those
to the simulator via :attr:`~repro.exp.spec.CampaignSpec.points_override`.

Two scoring modes:

``gradient``
    A point scores the largest absolute change of the predicted metric
    towards any axis-neighbour on the declared grid — ridge points and
    regime boundaries (e.g. the saturation knee) rank first, plateau
    interiors last.
``target``
    A point scores its proximity to a target metric value (inverted
    distance) — "find the operating point nearest 1 W" style searches.

Everything is deterministic: scoring is pure arithmetic, ties break on
grid expansion order, and the selected sub-grid keeps that order — so a
refinement computed under ``--jobs 1`` and ``--jobs N`` is byte-identical
(the CI smoke diffs exactly that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro._domain import Domain, SpecError
from repro.analytic.crossval import model_overrides
from repro.analytic.models import predict
from repro.exp.grid import expand_grid
from repro.exp.spec import CampaignSpec, canonical_params

__all__ = [
    "RefinedCampaign",
    "ScoredPoint",
    "refine_campaign",
    "score_grid",
]

SCORE_MODES = ("gradient", "target")


@dataclass(frozen=True)
class ScoredPoint:
    """One grid point's surrogate evaluation and ranking outcome."""

    index: int
    swept: Dict[str, Any]
    value: float
    score: float
    selected: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "swept": canonical_params(dict(self.swept)),
            "value": self.value,
            "score": self.score,
            "selected": self.selected,
        }


@dataclass
class RefinedCampaign:
    """A refined spec plus the screen that produced it."""

    original: CampaignSpec
    spec: CampaignSpec
    scored: List[ScoredPoint] = field(default_factory=list)
    predictor: str = ""
    metric: str = ""
    mode: str = "gradient"
    target: Optional[float] = None
    fraction: float = 0.35

    @property
    def selected(self) -> List[ScoredPoint]:
        return [p for p in self.scored if p.selected]

    @property
    def dispatch_fraction(self) -> float:
        """Share of the full grid actually sent to the simulator."""
        if not self.scored:
            return 0.0
        return len(self.selected) / len(self.scored)

    def as_payload(self) -> Dict[str, Any]:
        """JSON-ready description of the screen (deterministic bytes)."""
        return {
            "predictor": self.predictor,
            "metric": self.metric,
            "mode": self.mode,
            "target": self.target,
            "fraction": self.fraction,
            "grid_points": len(self.scored),
            "dispatched": len(self.selected),
            "dispatch_fraction": self.dispatch_fraction,
            "scored": [p.as_dict() for p in self.scored],
            "campaign": self.spec.describe(),
        }


def _axis_neighbours(
    swept: Mapping[str, Any], grid: Mapping[str, Sequence[Any]]
) -> List[Dict[str, Any]]:
    """Grid points one step away along a single declared axis."""
    neighbours: List[Dict[str, Any]] = []
    for axis, values in grid.items():
        values = list(values)
        position = values.index(swept[axis])
        for step in (-1, 1):
            other = position + step
            if 0 <= other < len(values):
                neighbour = dict(swept)
                neighbour[axis] = values[other]
                neighbours.append(neighbour)
    return neighbours


def _coords(swept: Mapping[str, Any], grid_keys: Sequence[str]) -> Tuple[Any, ...]:
    return tuple(swept[key] for key in grid_keys)


def score_grid(
    spec: CampaignSpec,
    predictor: str,
    metric: str,
    mode: str = "gradient",
    target: Optional[float] = None,
    param_map: Optional[Mapping[str, str]] = None,
) -> List[ScoredPoint]:
    """Evaluate the surrogate over the full grid and score every point.

    The model sees exactly what the simulator would: base + swept +
    derived parameters, translated through the shared parameter space
    (:func:`repro.analytic.crossval.model_overrides`).
    """
    Domain(str, choices=SCORE_MODES).check("score_grid.mode", mode)
    if mode == "target" and target is None:
        raise SpecError("score_grid.target must be set for mode='target'; got None")
    swept_points = (
        [dict(entry) for entry in spec.points_override]
        if spec.points_override is not None
        else expand_grid(spec.grid)
    )
    full_points = spec.points()
    values: Dict[Tuple[Any, ...], float] = {}
    for swept, params in zip(swept_points, full_points):
        overrides = model_overrides(params, param_map=param_map)
        record = predict(predictor, overrides)
        value = record[metric]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(
                f"predictor {predictor!r} field {metric!r} is not numeric"
            )
        values[_coords(swept, spec.grid_keys)] = float(value)
    scored: List[ScoredPoint] = []
    for index, swept in enumerate(swept_points):
        value = values[_coords(swept, spec.grid_keys)]
        if mode == "target":
            score = -abs(value - float(target))
        else:
            score = 0.0
            for neighbour in _axis_neighbours(swept, spec.grid):
                other = values.get(_coords(neighbour, spec.grid_keys))
                if other is not None:
                    score = max(score, abs(value - other))
        scored.append(
            ScoredPoint(index=index, swept=dict(swept), value=value, score=score)
        )
    return scored


def refine_campaign(
    spec: CampaignSpec,
    predictor: str,
    metric: str,
    mode: str = "gradient",
    target: Optional[float] = None,
    fraction: float = 0.35,
    param_map: Optional[Mapping[str, str]] = None,
) -> RefinedCampaign:
    """Screen ``spec``'s grid with the analytic model; keep the top slice.

    ``fraction`` bounds the simulator dispatch: ``ceil(fraction * N)``
    points survive (at least one).  Ranking is by score descending with
    grid-order tie-breaks, and the surviving points are re-emitted in
    grid expansion order — the refined spec's run list is a strict
    subsequence of the full campaign's, so every run key (and therefore
    every cached result) is shared between the two.
    """
    Domain(float, gt=0, le=1).check("refine_campaign.fraction", fraction)
    scored = score_grid(
        spec, predictor, metric, mode=mode, target=target, param_map=param_map
    )
    keep = max(1, math.ceil(fraction * len(scored)))
    ranked = sorted(scored, key=lambda p: (-p.score, p.index))
    chosen = {p.index for p in ranked[:keep]}
    scored = [replace(p, selected=p.index in chosen) for p in scored]
    override = [dict(p.swept) for p in scored if p.selected]
    refined = replace(spec, points_override=override)
    return RefinedCampaign(
        original=spec,
        spec=refined,
        scored=scored,
        predictor=predictor,
        metric=metric,
        mode=mode,
        target=target,
        fraction=fraction,
    )
