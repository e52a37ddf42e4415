"""Extension — 802.11 transmit-rate adaptation (ARF/AARF).

The PHY-rate flavour of the survey's channel-adaptation theme: on a
channel whose error rate depends on the transmit rate, fixed-11M wastes
retries, fixed-1M wastes airtime (and radio-on energy), and ARF/AARF
track the best operating point.  AARF additionally damps ARF's probe
oscillation on a stable marginal channel.
"""

import random

from conftest import run_once

from repro.devices import wlan_cf_card
from repro.mac import (
    AarfRateController,
    ArfRateController,
    DcfConfig,
    DcfStation,
    Medium,
)
from repro.mac.frames import FrameKind
from repro.metrics import format_table
from repro.phy import Radio
from repro.sim import RandomStreams, Simulator

N_FRAMES = 300
FRAME_BYTES = 1200


def rate_dependent_loss(seed):
    """Marginal channel: 11M mostly fails, 5.5M mostly works, slower always."""
    rng = random.Random(seed)
    loss_by_rate = {11e6: 0.7, 5.5e6: 0.1, 2e6: 0.0, 1e6: 0.0}

    def model(frame, now):
        if frame.kind is not FrameKind.DATA:
            return True
        return rng.random() >= loss_by_rate.get(frame.rate_bps, 0.0)

    return model


def run_policy(label, controller, fixed_rate=None, seed=11):
    sim = Simulator()
    medium = Medium(sim, error_model=rate_dependent_loss(seed))
    streams = RandomStreams(seed=seed)
    radio = Radio(sim, wlan_cf_card())
    config = DcfConfig(rate_controller=controller)
    if fixed_rate is not None:
        config = DcfConfig(rate_bps=fixed_rate)
    sender = DcfStation(
        sim, medium, "a", rng=streams.stream("a"), config=config, radio=radio
    )
    received = []
    DcfStation(
        sim, medium, "b", rng=streams.stream("b"),
        on_receive=lambda f: received.append(f),
    )

    finished = {}

    def traffic(sim):
        for _ in range(N_FRAMES):
            yield sender.send("b", FRAME_BYTES)
        finished["at"] = sim.now

    sim.process(traffic(sim))
    sim.run(until=120.0)
    elapsed = finished.get("at", sim.now)
    goodput = len(received) * FRAME_BYTES * 8 / elapsed if received else 0.0
    energy_per_frame = radio.energy_j() / max(len(received), 1)
    return {
        "policy": label,
        "delivered": len(received),
        "retries": sender.retransmissions,
        "goodput_bps": goodput,
        "energy_per_frame_j": energy_per_frame,
    }


def run_rate_adaptation():
    return [
        run_policy("fixed-11M", None, fixed_rate=11e6),
        run_policy("fixed-5.5M", None, fixed_rate=5.5e6),
        run_policy("fixed-1M", None, fixed_rate=1e6),
        run_policy("ARF", ArfRateController(up_threshold=10)),
        run_policy("AARF", AarfRateController(up_threshold=10)),
    ]


def test_bench_rate_adaptation(emit):
    rows = run_once(run_rate_adaptation)
    emit(
        format_table(
            ["policy", "delivered", "retries", "goodput (b/s)", "energy/frame (J)"],
            [
                [r["policy"], r["delivered"], r["retries"], r["goodput_bps"], r["energy_per_frame_j"]]
                for r in rows
            ],
            title="Extension: ARF/AARF rate adaptation on a marginal channel",
        )
    )
    by_name = {r["policy"]: r for r in rows}
    # The adaptive policies (and safe fixed rates) deliver everything;
    # fixed-11M exhausts its retry budget on some frames and drops them.
    for name in ("fixed-5.5M", "fixed-1M", "ARF", "AARF"):
        assert by_name[name]["delivered"] == N_FRAMES
    assert by_name["fixed-11M"]["delivered"] < N_FRAMES
    # Fixed-11M burns far more retries than the adaptive policies.
    assert by_name["ARF"]["retries"] < 0.5 * by_name["fixed-11M"]["retries"]
    # Adaptive beats the slow-but-safe floor on goodput...
    assert by_name["ARF"]["goodput_bps"] > by_name["fixed-1M"]["goodput_bps"]
    # ...and AARF probes (and therefore retries) no more than ARF.
    assert by_name["AARF"]["retries"] <= by_name["ARF"]["retries"]
