"""Survey claim — "At operating system level a number of techniques for
controlling when wireless devices are on have been proposed ...
Decisions are made independently of any application information, and thus
must rely on the quality of the predictive techniques."

Compares always-on, fixed-timeout, adaptive-timeout and predictive
(exponential average) shutdown against a bursty request stream on the
WLAN card: energy, sleeps, and the latency penalty of on-demand wakes.
"""

import random

from conftest import run_once

from repro.devices import wlan_cf_card
from repro.metrics import format_table
from repro.oslayer import (
    AdaptiveTimeoutPolicy,
    AlwaysOnPolicy,
    DevicePowerManager,
    FixedTimeoutPolicy,
    OraclePolicy,
    PredictiveEwmaPolicy,
    break_even_time_s,
)
from repro.phy import Radio
from repro.sim import Simulator

DURATION_S = 200.0


def workload_gaps(seed=10, n=60):
    """Bimodal idle gaps: bursts of quick requests, then long silences."""
    rng = random.Random(seed)
    gaps = []
    for _ in range(n):
        if rng.random() < 0.6:
            gaps.append(rng.uniform(0.02, 0.2))
        else:
            gaps.append(rng.uniform(2.0, 8.0))
    return gaps


def run_policy(name):
    sim = Simulator()
    radio = Radio(sim, wlan_cf_card())
    break_even = break_even_time_s(radio, "idle", "off")
    gaps = workload_gaps()
    times, clock = [], 0.0
    for gap in gaps:
        clock += gap
        times.append(clock)
    policies = {
        "always-on": AlwaysOnPolicy(),
        "fixed-timeout": FixedTimeoutPolicy(break_even),
        "adaptive-timeout": AdaptiveTimeoutPolicy(
            initial_s=break_even, break_even_s=break_even
        ),
        "predictive-ewma": PredictiveEwmaPolicy(break_even, smoothing=0.4),
        "oracle (bound)": OraclePolicy(times, break_even),
    }
    manager = DevicePowerManager(sim, radio, policies[name], sleep_state="off")

    def feed(sim):
        for gap in workload_gaps():
            yield sim.timeout(gap)
            manager.submit(0.005)

    sim.process(feed(sim))
    sim.run(until=DURATION_S)
    return {
        "policy": name,
        "energy_j": radio.energy_j(),
        "sleeps": manager.stats.sleeps,
        "latency_s": manager.stats.added_latency_s,
    }


def run_shutdown():
    return [
        run_policy(name)
        for name in (
            "always-on",
            "fixed-timeout",
            "adaptive-timeout",
            "predictive-ewma",
            "oracle (bound)",
        )
    ]


def test_bench_os_shutdown(emit):
    rows = run_once(run_shutdown)
    emit(
        format_table(
            ["policy", "energy (J)", "sleeps", "added latency (s)"],
            [[r["policy"], r["energy_j"], r["sleeps"], r["latency_s"]] for r in rows],
            title="Survey: OS-level device shutdown policies",
        )
    )
    by_name = {r["policy"]: r for r in rows}
    always = by_name["always-on"]
    # Every sleeping policy saves substantial energy over always-on...
    for name in ("fixed-timeout", "adaptive-timeout", "predictive-ewma"):
        assert by_name[name]["energy_j"] < 0.6 * always["energy_j"]
        # ...at the cost of wake-up latency always-on never pays.
        assert by_name[name]["latency_s"] > always["latency_s"]
    # The predictive policy avoids the timeout slack on long idles.
    assert (
        by_name["predictive-ewma"]["energy_j"]
        <= 1.05 * by_name["fixed-timeout"]["energy_j"]
    )
    # Nobody beats the clairvoyant bound, and the break-even timeout is
    # within its guaranteed factor-2 of it.
    oracle = by_name["oracle (bound)"]["energy_j"]
    for name in ("fixed-timeout", "adaptive-timeout", "predictive-ewma"):
        assert by_name[name]["energy_j"] >= oracle - 1e-6
    assert by_name["fixed-timeout"]["energy_j"] <= 2.0 * oracle + 1.0
