"""Analytic models — evaluation throughput and surrogate screening cost.

The whole point of the closed-form layer is that a model evaluation is
~free next to a simulator run: screening a grid with the surrogate must
cost microseconds per point, or refinement would never beat just running
the simulator.  This benchmark times (a) raw predictor evaluations per
second and (b) a full surrogate screen of a 144-point grid, and asserts
both stay orders of magnitude below one simulated second's wall cost.
It also pins the dispatch-budget contract on the acceptance grid:
fraction 0.35 on 8 points sends 3 runs (37.5 % < 40 %).
"""

import time

from conftest import run_once

from repro.analytic import PREDICTORS
from repro.analytic.crossval import psm_crossval_spec
from repro.analytic.models import predict
from repro.analytic.surrogate import refine_campaign

N_EVALS = 2000


def run_predictor_sweep():
    """Evaluate every registered predictor across a spread of loads."""
    loads = [16e3 * (1.6 ** i) for i in range(10)]
    t0 = time.perf_counter()
    count = 0
    for _ in range(N_EVALS // (len(PREDICTORS) * len(loads))):
        for name, entry in PREDICTORS.items():
            field = (
                "offered_load_bps"
                if "offered_load_bps" in
                {f.name for f in entry.params_type.__dataclass_fields__.values()}
                else None
            )
            for load in loads:
                overrides = {field: load} if field else {}
                predict(name, overrides)
                count += 1
    return count, time.perf_counter() - t0


def run_surrogate_screen():
    """Score + rank a 144-point grid (18x what the acceptance grid uses)."""
    spec = psm_crossval_spec(
        name="bench-surrogate",
        n_stations=(1, 2, 3, 4),
        offered_load_bps=(16e3, 64e3, 128e3, 512e3, 2e6, 8e6),
        listen_interval=(1, 2, 3, 4, 6, 8),
    )
    t0 = time.perf_counter()
    refined = refine_campaign(
        spec, predictor="psm-energy", metric="wnic_power_w", fraction=0.25
    )
    return refined, time.perf_counter() - t0


def test_bench_analytic_eval_rate(emit):
    count, elapsed = run_once(run_predictor_sweep)
    rate = count / elapsed
    emit(
        f"Analytic predictor evaluations: {count} in {elapsed * 1e3:.1f} ms "
        f"({rate:,.0f}/s)"
    )
    # A simulated second of the psm scenario costs ~10-100 ms of wall
    # time; a model evaluation must be >=1000x cheaper to make
    # surrogate screening worthwhile.  10k evals/s is a very low bar.
    assert rate > 10_000


def test_bench_analytic_surrogate_screen(emit):
    refined, elapsed = run_once(run_surrogate_screen)
    emit(
        f"Surrogate screen: {len(refined.scored)} points scored, "
        f"{len(refined.selected)} dispatched "
        f"({refined.dispatch_fraction:.1%}) in {elapsed * 1e3:.1f} ms"
    )
    assert len(refined.scored) == 144
    assert len(refined.selected) == 36
    # Screening the whole grid must cost less than even one simulated
    # second, or refinement could never pay for itself.
    assert elapsed < 1.0


def test_bench_analytic_dispatch_budget(emit):
    # The acceptance-grid contract: the default fraction keeps the
    # surrogate-refined campaign under 40 % of the full grid.
    spec = psm_crossval_spec()
    refined = refine_campaign(
        spec, predictor="psm-energy", metric="wnic_power_w", fraction=0.35
    )
    emit(
        f"Acceptance grid: {len(refined.selected)}/{len(refined.scored)} "
        f"points dispatched ({refined.dispatch_fraction:.1%})"
    )
    assert refined.dispatch_fraction < 0.40
