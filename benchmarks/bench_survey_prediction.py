"""Survey claim — "Prediction of future channel conditions has a tradeoff
on cost and the accuracy of prediction versus the energy savings given
predicted conditions."

Runs the three predictors (persistence, EWMA, Markov) over Gilbert-
Elliott channels of varying burstiness, reporting accuracy and energy per
delivered frame against a transmit-always baseline.
"""

import random

from conftest import run_once

from repro.link import (
    EwmaPredictor,
    LastStatePredictor,
    MarkovPredictor,
    evaluate_predictor,
)
from repro.metrics import format_table
from repro.phy import GilbertElliottChannel

N_SLOTS = 20_000
FRAME_ENERGY_J = 0.01


class AlwaysTransmit:
    """Zero-cost 'predictor': always forecast good (the baseline)."""

    def observe(self, good):
        pass

    def predict(self):
        return True


def channel_states(p_flip, seed):
    channel = GilbertElliottChannel(
        p_good_to_bad=p_flip,
        p_bad_to_good=2 * p_flip,
        rng=random.Random(seed),
        slot_s=1.0,
    )
    return [channel.advance_to(float(i + 1)) for i in range(N_SLOTS)]


def run_prediction():
    rows = []
    for label, p_flip in (("bursty (p=0.02)", 0.02), ("choppy (p=0.2)", 0.2)):
        states = channel_states(p_flip, seed=8)
        for name, predictor in (
            ("always-tx", AlwaysTransmit()),
            ("last-state", LastStatePredictor()),
            ("ewma", EwmaPredictor(smoothing=0.3)),
            ("markov", MarkovPredictor()),
        ):
            outcome = evaluate_predictor(predictor, states)
            rows.append(
                {
                    "channel": label,
                    "predictor": name,
                    "accuracy": outcome.accuracy,
                    "energy": outcome.energy_per_delivered_frame(FRAME_ENERGY_J),
                    "throughput": outcome.successes / N_SLOTS,
                }
            )
    return rows


def test_bench_prediction(emit):
    rows = run_once(run_prediction)
    emit(
        format_table(
            ["channel", "predictor", "accuracy", "energy/frame (J)", "goodput"],
            [[r["channel"], r["predictor"], r["accuracy"], r["energy"], r["throughput"]] for r in rows],
            title="Survey: channel prediction — accuracy vs energy",
        )
    )
    bursty = {r["predictor"]: r for r in rows if r["channel"].startswith("bursty")}
    choppy = {r["predictor"]: r for r in rows if r["channel"].startswith("choppy")}
    # On a bursty channel every predictor beats transmit-always on energy.
    for name in ("last-state", "ewma", "markov"):
        assert bursty[name]["energy"] < bursty["always-tx"]["energy"]
        assert bursty[name]["accuracy"] > 0.8
    # On a nearly memoryless channel prediction helps far less; the gap
    # between the best predictor and the baseline shrinks.
    bursty_gain = bursty["always-tx"]["energy"] / bursty["markov"]["energy"]
    choppy_gain = choppy["always-tx"]["energy"] / choppy["markov"]["energy"]
    assert bursty_gain > choppy_gain
