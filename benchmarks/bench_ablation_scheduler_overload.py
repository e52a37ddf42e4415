"""Ablation — scheduler choice *under overload*.

At the paper's three-client load every scheduler looks alike (see
`bench_ablation_schedulers`): the channel has headroom, so ordering is
cosmetic.  The schedulers differentiate when demand exceeds capacity.
Here five 128 kb/s clients plus one 320 kb/s "hog" share a single
~0.6 Mb/s Bluetooth channel (aggregate demand ~1.6x capacity):

- FIFO/round-robin spread the pain arbitrarily;
- EDF serves whoever is closest to underrun — it minimises the worst
  stall but cannot create bandwidth;
- WFQ with equal weights enforces byte fairness: the hog is throttled
  toward an equal share while the light clients are protected.
"""

from conftest import run_once

from repro.apps import Mp3Stream
from repro.core import (
    HotspotClient,
    HotspotServer,
    QoSContract,
    bluetooth_interface,
)
from repro.metrics import format_table
from repro.sim import Simulator

DURATION_S = 60.0
LIGHT_CLIENTS = 5
LIGHT_RATE = 128_000.0
HOG_RATE = 320_000.0


def run_overload(scheduler_name):
    sim = Simulator()
    server = HotspotServer(sim, scheduler=scheduler_name, min_burst_bytes=20_000)
    clients = []
    rates = [LIGHT_RATE] * LIGHT_CLIENTS + [HOG_RATE]
    for index, rate in enumerate(rates):
        name = f"hog" if rate == HOG_RATE else f"light{index}"
        contract = QoSContract(
            client=name, stream_rate_bps=rate, client_buffer_bytes=96_000
        )
        client = HotspotClient(
            sim, name, contract,
            {"bluetooth": bluetooth_interface(sim, name=f"{name}/bt")},
        )
        server.register(client)
        server.ingest(name, int(30.0 * rate / 8.0))
        Mp3Stream(bitrate_bps=rate).start(
            sim, server.sink_for(name), until_s=DURATION_S
        )
        clients.append(client)
    server.start()
    sim.run(until=DURATION_S)
    light_served = [
        c.bytes_received / (LIGHT_RATE / 8 * DURATION_S)
        for c in clients
        if c.name != "hog"
    ]
    hog_served = next(
        c.bytes_received / (HOG_RATE / 8 * DURATION_S)
        for c in clients
        if c.name == "hog"
    )
    total_stall = sum(c.finish().underrun_time_s for c in clients)
    return {
        "scheduler": scheduler_name,
        "light_min_served": min(light_served),
        "hog_served": hog_served,
        "total_stall_s": total_stall,
    }


def run_overload_sweep():
    return [run_overload(name) for name in ("fifo", "round-robin", "edf", "wfq")]


def test_bench_scheduler_overload(emit):
    rows = run_once(run_overload_sweep)
    emit(
        format_table(
            ["scheduler", "worst light client served", "hog served", "total stall (s)"],
            [
                [r["scheduler"], r["light_min_served"], r["hog_served"], r["total_stall_s"]]
                for r in rows
            ],
            title=(
                "Ablation: schedulers under 1.6x overload "
                f"({LIGHT_CLIENTS}x128k + 1x320k on one ~0.6 Mb/s piconet)"
            ),
        )
    )
    by_name = {r["scheduler"]: r for r in rows}
    # Under overload nobody fully serves everyone...
    for r in rows:
        assert r["light_min_served"] < 1.0 or r["hog_served"] < 1.0
    # ...and WFQ protects the light clients better than FIFO does,
    # squeezing the hog instead.
    assert (
        by_name["wfq"]["light_min_served"]
        >= by_name["fifo"]["light_min_served"] - 0.02
    )
    assert by_name["wfq"]["hog_served"] <= by_name["fifo"]["hog_served"] + 0.02
