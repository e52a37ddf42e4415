"""Survey claim — "Adaptation of ARQ to the current channel state is
another enhancement."

On a Gilbert-Elliott channel that alternates clean and dirty phases, the
adaptive controller (EWMA success estimate -> scheme switch) is compared
against every static scheme.  Shape: adaptive approaches the best static
scheme overall and beats each static scheme on at least one phase mix.
"""

import random

from conftest import run_once

from repro.link import AdaptiveErrorControl
from repro.link.fec import STANDARD_CODES
from repro.metrics import format_table
from repro.phy import GilbertElliottChannel

FRAME_BITS = 8000
N_FRAMES = 4000
ENERGY_PER_BIT = (1.4 + 1.0) / 1e6  # both ends, 1 Mb/s


def frame_survives(code, ber, rng):
    if code is None:
        per = 1.0 - (1.0 - ber) ** FRAME_BITS
        bits = FRAME_BITS
    else:
        per = code.packet_error_rate(FRAME_BITS, ber)
        bits = code.coded_bits(FRAME_BITS)
    return rng.random() >= per, bits


def run_policy(policy_name, seed=7):
    """Energy per delivered frame for one (static or adaptive) policy."""
    rng = random.Random(seed)
    channel = GilbertElliottChannel(
        p_good_to_bad=0.01,
        p_bad_to_good=0.03,
        ber_good=1e-6,
        ber_bad=2e-3,
        slot_s=1.0,
        rng=random.Random(seed + 1),
    )
    controller = AdaptiveErrorControl() if policy_name == "adaptive" else None
    static_code = (
        None
        if policy_name in ("adaptive", "arq-only")
        else STANDARD_CODES[policy_name.replace("fec-", "")]
    )
    spent_bits = 0
    delivered = 0
    for slot in range(N_FRAMES):
        channel.advance_to(float(slot + 1))
        ber = channel.current_ber()
        code = (
            controller.current_scheme.code if controller is not None else static_code
        )
        survives, bits = frame_survives(code, ber, rng)
        spent_bits += bits
        if survives:
            delivered += 1
        if controller is not None:
            controller.observe(survives)
    energy = spent_bits * ENERGY_PER_BIT
    return {
        "policy": policy_name,
        "delivered": delivered,
        "energy_per_frame_j": energy / max(delivered, 1),
        "switches": controller.switches if controller else 0,
    }


def run_adaptive():
    policies = ["arq-only", "fec-light", "fec-medium", "fec-heavy", "adaptive"]
    return [run_policy(p) for p in policies]


def test_bench_adaptive_arq(emit):
    rows = run_once(run_adaptive)
    emit(
        format_table(
            ["policy", "frames delivered", "energy/frame (J)", "mode switches"],
            [[r["policy"], r["delivered"], r["energy_per_frame_j"], r["switches"]] for r in rows],
            title="Survey: adaptive error control on a Gilbert-Elliott channel",
        )
    )
    by_name = {r["policy"]: r for r in rows}
    adaptive = by_name["adaptive"]
    static_best = min(
        (r for r in rows if r["policy"] != "adaptive"),
        key=lambda r: r["energy_per_frame_j"],
    )
    # Adaptive must be within 15% of the best static scheme...
    assert adaptive["energy_per_frame_j"] <= 1.15 * static_best["energy_per_frame_j"]
    # ...while actually adapting (non-trivial switching).
    assert adaptive["switches"] >= 2
    # And it must beat the two extreme static schemes.
    assert adaptive["energy_per_frame_j"] < by_name["arq-only"]["energy_per_frame_j"]
    assert adaptive["energy_per_frame_j"] < by_name["fec-heavy"]["energy_per_frame_j"]
