"""Survey claim — "Longer mobile sleep periods can be created by
aggregating MAC layer packets."

Small packets stream toward a PSM station; an aggregator at the AP packs
them into bursts before transmission.  Sweeping the aggregation threshold
shows fewer, larger deliveries -> fewer PS-Polls and wake windows ->
lower station power, at a bounded delay cost.
"""

from conftest import run_once

from repro.devices import wlan_cf_card
from repro.mac import AccessPoint, Medium, PacketAggregator, PsmStation
from repro.metrics import format_table
from repro.phy import Radio
from repro.sim import RandomStreams, Simulator

DURATION_S = 30.0
PACKET_BYTES = 200
PACKET_INTERVAL_S = 0.02  # 50 packets/s = 80 kb/s of small packets


def run_aggregation_point(flush_bytes):
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=4)
    ap = AccessPoint(sim, medium, "ap", rng=streams.stream("ap"))
    radio = Radio(sim, wlan_cf_card())
    received = [0]
    station = PsmStation(
        sim, medium, "sta", ap, radio, rng=streams.stream("sta"),
        on_receive=lambda frame: received.__setitem__(0, received[0] + frame.payload_bytes),
    )
    if flush_bytes is None:
        def offer(nbytes):
            ap.send_data("sta", nbytes)
        aggregator = None
    else:
        aggregator = PacketAggregator(
            sim,
            sink=lambda packets, total: ap.send_data("sta", total),
            flush_bytes=flush_bytes,
            max_delay_s=1.0,
        )

        def offer(nbytes):
            aggregator.offer(nbytes)

    def traffic(sim):
        while sim.now < DURATION_S - 2.0:
            yield sim.timeout(PACKET_INTERVAL_S)
            offer(PACKET_BYTES)

    sim.process(traffic(sim))
    sim.run(until=DURATION_S)
    return {
        "threshold": flush_bytes or "none",
        "power_w": radio.average_power_w(),
        "polls": station.polls_sent,
        "doze_s": radio.time_in_state("doze"),
        "bytes": received[0],
    }


def run_sweep():
    return [run_aggregation_point(t) for t in (None, 1_000, 4_000, 16_000)]


def test_bench_aggregation(emit):
    rows = run_once(run_sweep)
    emit(
        format_table(
            ["aggregation threshold (B)", "power (W)", "PS-Polls", "doze time (s)", "bytes delivered"],
            [[r["threshold"], r["power_w"], r["polls"], r["doze_s"], r["bytes"]] for r in rows],
            title="Survey: MAC-layer aggregation lengthens sleep",
        )
    )
    none, small, medium_row, large = rows
    # Aggregation reduces poll count monotonically and saves power.
    assert large["polls"] < medium_row["polls"] < none["polls"]
    assert large["power_w"] < none["power_w"]
    assert large["doze_s"] > none["doze_s"]
    # Payload still arrives (within the trailing flush window).
    assert large["bytes"] > 0.8 * none["bytes"]
