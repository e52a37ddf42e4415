"""Survey claim — transport protocols "are designed to work well when
deployed on reliable links, thus causing problems when working in
wireless conditions.  This can be mitigated ... ranging from splitting a
connection, to [snoop-style supporting agents]."

Sweeps wireless loss rate for plain end-to-end TCP, snoop and split
connection; reports goodput.  Shape: plain TCP collapses steeply, the
mitigations degrade gracefully.
"""

import random

from conftest import run_once

from repro.metrics import format_table
from repro.sim import Simulator
from repro.transport import (
    NetworkPath,
    SnoopAgent,
    TcpReceiver,
    TcpSender,
    run_split_connection,
)

TRANSFER_BYTES = 600_000
LOSS_RATES = (0.0, 0.01, 0.03, 0.05)
WIRED = dict(bandwidth_bps=10e6, delay_s=0.04)
WIRELESS = dict(bandwidth_bps=5e6, delay_s=0.01)


def loss_process(rate, seed):
    rng = random.Random(seed)
    return lambda seg, now: seg.is_ack or rng.random() >= rate


def run_plain(rate, seed=9):
    sim = Simulator()
    reverse = NetworkPath(sim, 5e6, 0.05, deliver=lambda s: sender.on_ack(s))
    receiver = TcpReceiver(sim, reverse)
    forward = NetworkPath(
        sim, 5e6, 0.05, deliver=receiver.deliver,
        loss_process=loss_process(rate, seed),
    )
    sender = TcpSender(sim, forward, TRANSFER_BYTES)
    done = sender.start()
    out = []

    def wait(sim):
        stats = yield done
        out.append(stats)

    sim.process(wait(sim))
    sim.run(until=900.0)
    return out[0].goodput_bps() if out else 0.0


def run_snoop(rate, seed=9):
    sim = Simulator()
    wired_reverse = NetworkPath(sim, **WIRED, deliver=lambda s: sender.on_ack(s))
    wireless_reverse = NetworkPath(
        sim, **WIRELESS, deliver=lambda s: snoop.backward_ack(s)
    )
    mobile = TcpReceiver(sim, wireless_reverse)
    wireless_forward = NetworkPath(
        sim, **WIRELESS, deliver=mobile.deliver,
        loss_process=loss_process(rate, seed),
    )
    snoop = SnoopAgent(sim, wireless_forward, wired_reverse)
    wired_forward = NetworkPath(sim, **WIRED, deliver=snoop.forward_data)
    sender = TcpSender(sim, wired_forward, TRANSFER_BYTES)
    done = sender.start()
    out = []

    def wait(sim):
        stats = yield done
        out.append(stats)

    sim.process(wait(sim))
    sim.run(until=900.0)
    return out[0].goodput_bps() if out else 0.0


def run_split(rate, seed=9):
    sim = Simulator()
    _wired, _wireless, done = run_split_connection(
        sim,
        TRANSFER_BYTES,
        WIRED["bandwidth_bps"],
        WIRED["delay_s"],
        WIRELESS["bandwidth_bps"],
        WIRELESS["delay_s"],
        loss_process(rate, seed),
    )
    out = []

    def wait(sim):
        yield done
        out.append(sim.now)

    sim.process(wait(sim))
    sim.run(until=900.0)
    return TRANSFER_BYTES * 8 / out[0] if out else 0.0


def run_tcp_sweep():
    rows = []
    for rate in LOSS_RATES:
        rows.append(
            {
                "loss": rate,
                "plain": run_plain(rate),
                "snoop": run_snoop(rate),
                "split": run_split(rate),
            }
        )
    return rows


def test_bench_tcp(emit):
    rows = run_once(run_tcp_sweep)
    emit(
        format_table(
            ["wireless loss", "plain TCP (b/s)", "snoop (b/s)", "split (b/s)"],
            [[r["loss"], r["plain"], r["snoop"], r["split"]] for r in rows],
            title="Survey: TCP over wireless — goodput vs loss rate",
        )
    )
    clean, worst = rows[0], rows[-1]
    # Plain TCP collapses hard (>60% loss of goodput at 5% segment loss).
    assert worst["plain"] < 0.4 * clean["plain"]
    # Mitigations beat plain TCP under loss.
    assert worst["snoop"] > worst["plain"]
    assert worst["split"] > worst["plain"]
