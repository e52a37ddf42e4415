"""Survey claim — "WLANs spend as much as 90% of their time listening,
[so] power control techniques aimed at reducing their transmission power
are far from sufficient."

Two sub-experiments on the packet-level DCF substrate:

1. time-in-state breakdown of a station under light/moderate downlink —
   the idle (listen) fraction dominates;
2. a transmit-power-scaling ablation: halving tx power barely moves the
   station's total energy, because tx time is a sliver of the day.
"""

from conftest import run_once

from repro.devices import wlan_cf_card
from repro.mac import DcfStation, Medium
from repro.phy import Radio, RadioPowerModel, PowerState
from repro.metrics import format_table
from repro.sim import RandomStreams, Simulator

DURATION_S = 30.0


def run_station(load_label, frame_interval_s, tx_power_scale=1.0):
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=1)
    base = wlan_cf_card()
    if tx_power_scale != 1.0:
        states = [
            PowerState(
                s.name,
                s.power_w * (tx_power_scale if s.name == "tx" else 1.0),
                s.can_communicate,
            )
            for s in base.states.values()
        ]
        base = RadioPowerModel(
            "wlan-scaled",
            states,
            [base.transition(a, b) for a in base.states for b in base.states
             if base.transition(a, b).latency_s or base.transition(a, b).energy_j],
            initial_state="idle",
        )
    radio = Radio(sim, base)
    sender = DcfStation(sim, medium, "sta", rng=streams.stream("sta"), radio=radio)
    DcfStation(sim, medium, "peer", rng=streams.stream("peer"))

    def traffic(sim):
        while sim.now < DURATION_S:
            yield sim.timeout(frame_interval_s)
            sender.send("peer", 1500)

    sim.process(traffic(sim))
    sim.run(until=DURATION_S)
    idle = radio.time_in_state("idle")
    tx = radio.time_in_state("tx")
    return {
        "load": load_label,
        "idle_fraction": idle / DURATION_S,
        "tx_fraction": tx / DURATION_S,
        "energy_j": radio.energy_j(),
    }


def run_listen_fraction():
    rows = []
    for label, interval in (("light (10 fps)", 0.1), ("moderate (100 fps)", 0.01)):
        rows.append(run_station(label, interval))
    # Ablation: halve transmit power at light load (the typical regime
    # the survey's 90 %-listening figure describes).
    full = run_station("light", 0.1, tx_power_scale=1.0)
    half = run_station("light", 0.1, tx_power_scale=0.5)
    return rows, full, half


def test_bench_listen_fraction(emit):
    rows, full, half = run_once(run_listen_fraction)
    tx_saving = 1.0 - half["energy_j"] / full["energy_j"]
    emit(
        format_table(
            ["load", "listen fraction", "tx fraction", "energy (J)"],
            [[r["load"], r["idle_fraction"], r["tx_fraction"], r["energy_j"]] for r in rows],
            title="Survey: WLAN stations mostly listen",
        )
        + f"\n\nHalving TX power saves only {tx_saving * 100:.1f}% of station "
        "energy  [paper: tx-power control 'far from sufficient']"
    )
    assert rows[0]["idle_fraction"] > 0.9, "light load: >=90% listening"
    assert rows[1]["idle_fraction"] > 0.8
    assert tx_saving < 0.10, "tx-power control must be nearly irrelevant"
