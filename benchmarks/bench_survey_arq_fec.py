"""Survey claim — "Power savings are obtained by trading off
retransmissions with Automatic Repeat Request (ARQ) with longer packet
sizes due to Forward Error Correction."

Sweeps BER and reports energy per delivered bit for plain ARQ and three
FEC strengths — analytically and cross-checked in simulation.  The shape:
ARQ wins on clean channels, FEC wins on dirty ones, with a crossover.
"""

import random

from conftest import run_once

from repro.link import BitPipe, HybridArqFec, StopAndWaitArq
from repro.link.fec import (
    STANDARD_CODES,
    arq_energy_per_good_bit,
    fec_energy_per_good_bit,
)
from repro.metrics import format_table
from repro.sim import Simulator

BERS = (1e-6, 1e-5, 1e-4, 1e-3, 5e-3)
FRAME_BITS = 8000
LINK = dict(tx_power_w=1.4, rx_power_w=1.0, rate_bps=1e6)


def analytic_rows():
    rows = []
    for ber in BERS:
        row = {"ber": ber, "arq": arq_energy_per_good_bit(ber, FRAME_BITS, **LINK)}
        for name in ("light", "medium", "heavy"):
            row[name] = fec_energy_per_good_bit(
                STANDARD_CODES[name], ber, FRAME_BITS, **LINK
            )
        rows.append(row)
    return rows


def simulated_point(ber, code_name, seed=6):
    sim = Simulator()
    rng = random.Random(seed)
    if code_name == "arq":
        per = 1.0 - (1.0 - ber) ** FRAME_BITS
        pipe = BitPipe(
            sim, error_process=lambda bits, now: rng.random() >= per, **{
                "rate_bps": LINK["rate_bps"],
                "tx_power_w": LINK["tx_power_w"],
                "rx_power_w": LINK["rx_power_w"],
            }
        )
        protocol = StopAndWaitArq(sim, pipe, frame_bits=FRAME_BITS, max_attempts=500)
    else:
        code = STANDARD_CODES[code_name]
        per = code.packet_error_rate(FRAME_BITS, ber)
        pipe = BitPipe(
            sim, error_process=lambda bits, now: rng.random() >= per, **{
                "rate_bps": LINK["rate_bps"],
                "tx_power_w": LINK["tx_power_w"],
                "rx_power_w": LINK["rx_power_w"],
            }
        )
        protocol = HybridArqFec(sim, pipe, code, frame_bits=FRAME_BITS, max_attempts=500)
    results = []

    def body(sim):
        stats = yield protocol.transfer(60)
        results.append(stats)

    sim.process(body(sim))
    sim.run()
    return results[0].energy_per_delivered_bit_j


def run_arq_fec():
    rows = analytic_rows()
    # Cross-check two analytically-distinct points in simulation.
    sim_clean_arq = simulated_point(1e-6, "arq")
    sim_dirty_arq = simulated_point(1e-3, "arq")
    sim_dirty_fec = simulated_point(1e-3, "medium")
    return rows, (sim_clean_arq, sim_dirty_arq, sim_dirty_fec)


def test_bench_arq_fec(emit):
    rows, (sim_clean_arq, sim_dirty_arq, sim_dirty_fec) = run_once(run_arq_fec)
    emit(
        format_table(
            ["BER", "ARQ (J/bit)", "FEC light", "FEC medium", "FEC heavy"],
            [[r["ber"], r["arq"], r["light"], r["medium"], r["heavy"]] for r in rows],
            title="Survey: ARQ vs FEC energy per delivered bit",
        )
        + f"\n\nsimulation cross-check @BER=1e-3: ARQ {sim_dirty_arq:.3e} J/bit, "
        f"FEC-medium {sim_dirty_fec:.3e} J/bit"
    )
    clean, dirty = rows[0], rows[3]
    assert clean["arq"] < clean["medium"], "ARQ wins when the channel is clean"
    assert dirty["medium"] < dirty["arq"], "FEC wins when the channel is dirty"
    # Simulation agrees with the analytical winner at both ends.
    assert sim_dirty_fec < sim_dirty_arq
    assert sim_clean_arq < sim_dirty_arq
    # Crossover: the winner flips exactly once along the sweep.
    winners = ["arq" if r["arq"] < r["medium"] else "fec" for r in rows]
    assert winners[0] == "arq" and winners[-1] == "fec"
    assert sum(1 for a, b in zip(winners, winners[1:]) if a != b) == 1
