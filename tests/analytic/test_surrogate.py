"""Surrogate-guided refinement: scoring, selection, determinism and the
points_override plumbing it rides on."""

import pytest

from repro.analytic.crossval import psm_crossval_spec
from repro.analytic.surrogate import (
    ScoredPoint,
    refine_campaign,
    score_grid,
)
from repro.exp.spec import CampaignSpec, run_key


def grid_spec(**kwargs):
    defaults = dict(
        n_stations=(1, 2),
        offered_load_bps=(128_000.0, 6_000_000.0),
        listen_interval=(1, 2),
    )
    defaults.update(kwargs)
    return psm_crossval_spec(name="surrogate-test", **defaults)


class TestPointsOverride:
    def test_override_restricts_points_but_keeps_grid_keys(self):
        spec = grid_spec()
        subset = list(spec.points())[:3]
        swept = [
            {k: p[k] for k in spec.grid_keys} for p in subset
        ]
        refined = CampaignSpec(
            name=spec.name,
            scenario=spec.scenario,
            grid=spec.grid,
            base=spec.base,
            derive=spec.derive,
            seeds=spec.seeds,
            points_override=swept,
        )
        assert list(refined.points()) == subset
        assert refined.grid_keys == spec.grid_keys

    def test_override_with_foreign_keys_rejected(self):
        spec = grid_spec()
        with pytest.raises(ValueError, match="points_override"):
            CampaignSpec(
                name=spec.name,
                scenario=spec.scenario,
                grid=spec.grid,
                base=spec.base,
                seeds=spec.seeds,
                points_override=[{"bogus": 1}],
            )

    def test_override_appears_in_describe_only_when_set(self):
        spec = grid_spec()
        assert "points_override" not in spec.describe()
        refined = refine_campaign(
            spec, predictor="psm-energy", metric="wnic_power_w",
            fraction=0.5,
        ).spec
        assert "points_override" in refined.describe()


class TestScoreGrid:
    def test_scores_every_grid_point(self):
        spec = grid_spec()
        scored = score_grid(spec, predictor="psm-energy",
                            metric="wnic_power_w")
        assert len(scored) == 8
        assert [p.index for p in scored] == list(range(8))
        assert all(isinstance(p, ScoredPoint) for p in scored)

    def test_gradient_mode_finds_the_knee_on_one_axis(self):
        # Offered load swept through the light/saturated knee: the
        # steepest model gradient sits next to the biggest jump, the
        # flat tails score lowest.
        spec = grid_spec(
            n_stations=(1,),
            offered_load_bps=(16e3, 64e3, 256e3, 2e6, 8e6),
            listen_interval=(1,),
        )
        scored = score_grid(spec, predictor="psm-energy",
                            metric="wnic_power_w")
        best = max(scored, key=lambda p: p.score)
        assert best.swept["offered_load_bps"] in (256e3, 2e6)
        flat_tail = [p for p in scored
                     if p.swept["offered_load_bps"] == 8e6][0]
        assert flat_tail.score < best.score

    def test_target_mode_ranks_by_distance(self):
        spec = grid_spec(n_stations=(1,),
                         offered_load_bps=(16e3, 256e3, 8e6),
                         listen_interval=(1,))
        mid = score_grid(spec, predictor="psm-energy",
                         metric="wnic_power_w", mode="target",
                         target=0.5)
        best = max(mid, key=lambda p: p.score)
        assert all(
            abs(best.value - 0.5) <= abs(p.value - 0.5) for p in mid
        )

    def test_mode_validation(self):
        spec = grid_spec()
        with pytest.raises(ValueError, match="mode"):
            score_grid(spec, predictor="psm-energy",
                       metric="wnic_power_w", mode="magic")
        with pytest.raises(ValueError, match="target"):
            score_grid(spec, predictor="psm-energy",
                       metric="wnic_power_w", mode="target")

    def test_non_numeric_metric_rejected(self):
        spec = grid_spec()
        with pytest.raises(ValueError, match="numeric"):
            score_grid(spec, predictor="psm-throughput",
                       metric="saturated")


class TestRefineCampaign:
    def test_dispatch_fraction_uses_ceil_and_floors_at_one(self):
        spec = grid_spec()
        refined = refine_campaign(spec, predictor="psm-energy",
                                  metric="wnic_power_w", fraction=0.35)
        # ceil(0.35 * 8) = 3 of 8 points -> under the 40 % budget.
        assert len(refined.selected) == 3
        assert refined.dispatch_fraction == pytest.approx(3 / 8)
        assert refined.dispatch_fraction < 0.40
        tiny = refine_campaign(spec, predictor="psm-energy",
                               metric="wnic_power_w", fraction=0.01)
        assert len(tiny.selected) == 1

    def test_fraction_validation(self):
        spec = grid_spec()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="fraction"):
                refine_campaign(spec, predictor="psm-energy",
                                metric="wnic_power_w", fraction=bad)

    def test_refined_run_keys_are_a_subset_of_the_full_grid(self):
        # The refined campaign shares the full campaign's cache: every
        # refined run key must already exist in the exhaustive key set,
        # so a later full sweep reuses the surrogate-dispatched runs.
        spec = grid_spec()
        refined = refine_campaign(spec, predictor="psm-energy",
                                  metric="wnic_power_w", fraction=0.35)
        full_keys = {
            run_key(spec.scenario, params, seed)
            for params in spec.points()
            for seed in spec.seeds
        }
        refined_keys = {
            run_key(refined.spec.scenario, params, seed)
            for params in refined.spec.points()
            for seed in refined.spec.seeds
        }
        assert refined_keys and refined_keys < full_keys

    def test_selection_is_deterministic(self):
        spec = grid_spec()
        a = refine_campaign(spec, predictor="psm-energy",
                            metric="wnic_power_w", fraction=0.35)
        b = refine_campaign(spec, predictor="psm-energy",
                            metric="wnic_power_w", fraction=0.35)
        assert a.as_payload() == b.as_payload()
        assert [p.index for p in a.selected] == [p.index for p in b.selected]

    def test_selected_points_reemitted_in_grid_order(self):
        spec = grid_spec()
        refined = refine_campaign(spec, predictor="psm-energy",
                                  metric="wnic_power_w", fraction=0.5)
        full_order = {
            tuple(sorted(p.items())): i for i, p in enumerate(spec.points())
        }
        positions = [
            full_order[tuple(sorted(p.items()))]
            for p in refined.spec.points()
        ]
        assert positions == sorted(positions)

    def test_payload_reports_budget_bookkeeping(self):
        spec = grid_spec()
        payload = refine_campaign(spec, predictor="psm-energy",
                                  metric="wnic_power_w",
                                  fraction=0.35).as_payload()
        assert payload["grid_points"] == 8
        assert payload["dispatched"] == 3
        assert payload["dispatch_fraction"] == pytest.approx(3 / 8)
        assert len(payload["scored"]) == 8
        assert sum(1 for s in payload["scored"] if s["selected"]) == 3
