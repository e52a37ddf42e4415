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
    coords: Tuple[Any, ...], grid: Mapping[str, Sequence[Any]]
) -> List[Tuple[Any, ...]]:
    """Grid coordinates one step away along a single declared axis."""
    neighbours: List[Tuple[Any, ...]] = []
    for axis, values in enumerate(grid.values()):
        values = list(values)
        position = values.index(coords[axis])
        for step in (-1, 1):
            other = position + step
            if 0 <= other < len(values):
                neighbours.append(coords[:axis] + (values[other],) + coords[axis + 1 :])
    return neighbours


def score_grid(
    spec: CampaignSpec,
    predictor: str,
    metric: str,
    mode: str = "gradient",
    target: Optional[float] = None,
) -> List[ScoredPoint]:
    """Evaluate the surrogate over the full grid and score every point.

    The model sees exactly what the simulator would: base + swept +
    derived parameters, translated into ``predictor``'s parameter type
    (:func:`repro.analytic.crossval.model_overrides`).
    """
    Domain(str, choices=SCORE_MODES).check("score_grid.mode", mode)
    if mode == "target" and target is None:
        raise SpecError("score_grid.target must be set for mode='target'; got None")
    points = spec.points()
    grid_coords = [tuple(params[key] for key in spec.grid_keys) for params in points]
    values: Dict[Tuple[Any, ...], float] = {}
    for coords, params in zip(grid_coords, points):
        value = predict(predictor, model_overrides(params, predictor))[metric]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(
                f"predictor {predictor!r} field {metric!r} is not numeric"
            )
        values[coords] = float(value)
    scored: List[ScoredPoint] = []
    for index, coords in enumerate(grid_coords):
        value = values[coords]
        if mode == "target":
            score = -abs(value - float(target))
        else:
            score = 0.0
            for neighbour in _axis_neighbours(coords, spec.grid):
                other = values.get(neighbour)
                if other is not None:
                    score = max(score, abs(value - other))
        swept = dict(zip(spec.grid_keys, coords))
        scored.append(ScoredPoint(index=index, swept=swept, value=value, score=score))
    return scored


def refine_campaign(
    spec: CampaignSpec,
    predictor: str,
    metric: str,
    mode: str = "gradient",
    target: Optional[float] = None,
    fraction: float = 0.35,
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
    scored = score_grid(spec, predictor, metric, mode=mode, target=target)
    keep = max(1, math.ceil(fraction * len(scored)))
    ranked = sorted(scored, key=lambda p: (-p.score, p.index))
    chosen = {p.index for p in ranked[:keep]}
    scored = [replace(p, selected=p.index in chosen) for p in scored]
    override = [dict(p.swept) for p in scored if p.selected]
    refined = replace(spec, points_override=override)
    return RefinedCampaign(
        spec=refined,
        scored=scored,
        predictor=predictor,
        metric=metric,
        mode=mode,
        target=target,
        fraction=fraction,
    )
