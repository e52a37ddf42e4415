#!/usr/bin/env python3
"""Surrogate-guided campaigns: let the closed-form model pick the runs.

A full parameter sweep spends most of its simulator budget on points
where nothing interesting happens.  The analytic layer knows (for free)
roughly where the interesting region is — so screen the grid with a
closed-form predictor first, rank points by model gradient, and dispatch
the simulator only to the informative ones.  Here the 8-point
cross-validation acceptance grid shrinks to 3 simulated points (37.5 %,
inside the <40 % dispatch budget) while the refined runs share cache
keys with the full sweep: anything the surrogate dispatched is a warm
cache hit if you later run the exhaustive campaign.

Run:  python examples/surrogate_refinement.py
"""

import tempfile

from repro.analytic.crossval import psm_crossval_spec
from repro.analytic.surrogate import refine_campaign
from repro.exp import ResultStore, aggregate, run_campaign, summary_table

GRID_KEYS = ("n_clients", "offered_load_bps", "listen_interval")


def main() -> None:
    # The default sim-vs-model acceptance grid, trimmed to quick runs.
    spec = psm_crossval_spec(
        name="surrogate-demo",
        light_duration_s=10.0,
        saturated_duration_s=5.0,
    )

    # Screen every grid point with the closed-form energy model and keep
    # the 35 % with the steepest per-station power gradient — the knees
    # of the response surface, where simulator seeds earn their cost.
    refined = refine_campaign(
        spec, predictor="psm-energy", metric="wnic_power_w", fraction=0.35
    )
    print(
        f"surrogate screen: {len(refined.selected)}/{len(refined.scored)} "
        f"grid points dispatched ({refined.dispatch_fraction:.1%})"
    )
    for point in refined.scored:
        mark = "->" if point.selected else "  "
        coords = ", ".join(f"{k}={point.swept[k]:g}" for k in GRID_KEYS)
        print(f"  {mark} {coords}: model {point.value:.3f} W "
              f"(score {point.score:.3f})")

    # The refined spec is an ordinary CampaignSpec: cached, parallel,
    # resumable, and keyed identically to the full sweep.
    store_dir = tempfile.mkdtemp(prefix="repro-surrogate-")
    with ResultStore(store_dir) as store:
        report = run_campaign(refined.spec, store=store, jobs=2)
    print()
    print(report.status_line())
    print()
    print(
        summary_table(
            aggregate(report.results),
            GRID_KEYS,
            fields=("wnic_power_w",),
            title="Simulator runs at the surrogate-selected points",
        )
    )

    assert refined.dispatch_fraction < 0.40, "dispatch budget exceeded"


if __name__ == "__main__":
    main()
