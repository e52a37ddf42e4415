"""Survey claim — "EC-MAC extends [802.11 PSM] by broadcasting a centrally
determined schedule ... to reduce collisions and to provide exact times
for entry into doze state."

Compares N-station downlink under 802.11 PSM (contended PS-Polls) against
EC-MAC (collision-free scheduled windows): collisions on the medium and
per-station average power.
"""

from conftest import run_once

from repro.apps import PoissonTraffic
from repro.devices import wlan_cf_card
from repro.mac import (
    AccessPoint,
    EcMacConfig,
    EcMacCoordinator,
    EcMacStation,
    Medium,
    PsmStation,
)
from repro.metrics import format_table
from repro.phy import Radio
from repro.sim import RandomStreams, Simulator

DURATION_S = 30.0
N_STATIONS = 6


def run_psm_network(seed=3):
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=seed)
    ap = AccessPoint(sim, medium, "ap", rng=streams.stream("ap"))
    radios, received = [], [0]
    for i in range(N_STATIONS):
        radio = Radio(sim, wlan_cf_card(), name=f"sta{i}")
        radios.append(radio)
        PsmStation(
            sim, medium, f"sta{i}", ap, radio, rng=streams.stream(f"sta{i}"),
            on_receive=lambda frame: received.__setitem__(0, received[0] + 1),
        )
        source = PoissonTraffic(0.25, 1200, streams.stream(f"traffic{i}"))
        source.start(
            sim, lambda n, k, name=f"sta{i}": ap.send_data(name, n), DURATION_S
        )
    sim.run(until=DURATION_S)
    power = sum(r.average_power_w() for r in radios) / N_STATIONS
    return {
        "mac": "802.11 PSM",
        "collisions": medium.frames_collided,
        "power_w": power,
        "delivered": received[0],
    }


def run_ecmac_network(seed=3):
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=seed)
    coordinator = EcMacCoordinator(
        sim, medium, config=EcMacConfig(superframe_s=0.1)
    )
    radios, received = [], [0]
    for i in range(N_STATIONS):
        radio = Radio(sim, wlan_cf_card(), name=f"sta{i}")
        radios.append(radio)
        EcMacStation(
            sim, medium, f"sta{i}", coordinator, radio,
            on_receive=lambda frame: received.__setitem__(0, received[0] + 1),
        )
        source = PoissonTraffic(0.25, 1200, streams.stream(f"traffic{i}"))
        source.start(
            sim,
            lambda n, k, name=f"sta{i}": coordinator.send_data(name, n),
            DURATION_S,
        )
    sim.run(until=DURATION_S)
    power = sum(r.average_power_w() for r in radios) / N_STATIONS
    return {
        "mac": "EC-MAC",
        "collisions": medium.frames_collided,
        "power_w": power,
        "delivered": received[0],
    }


SEEDS = (3, 17, 29)


def run_comparison():
    """Replicated across seeds; Poisson traffic makes single runs noisy."""
    from repro.exp import FieldStats

    def replicate(network):
        runs = [network(seed) for seed in SEEDS]
        return {
            key: FieldStats.of([run[key] for run in runs])
            for key in runs[0]
            if key != "mac"
        }

    return replicate(run_psm_network), replicate(run_ecmac_network)


def test_bench_ecmac(emit):
    psm, ecmac = run_once(run_comparison)
    rows = []
    for label, result in (("802.11 PSM", psm), ("EC-MAC", ecmac)):
        rows.append(
            [
                label,
                f"{result['collisions'].mean:.1f} ± {result['collisions'].ci95:.1f}",
                f"{result['power_w'].mean:.4f} ± {result['power_w'].ci95:.4f}",
                f"{result['delivered'].mean:.0f}",
            ]
        )
    emit(
        format_table(
            ["MAC", "collisions", "per-station power (W)", "frames delivered"],
            rows,
            title=(
                f"Survey: EC-MAC vs 802.11 PSM, {N_STATIONS} stations, "
                f"Poisson downlink (mean ± 95% CI over {len(SEEDS)} seeds)"
            ),
        )
    )
    assert ecmac["collisions"].mean == 0, "central schedule is collision-free"
    assert psm["collisions"].mean > 0, "contended PS-Polls collide"
    # Both deliver comparable traffic volumes.
    assert ecmac["delivered"].mean > 0.9 * psm["delivered"].mean
