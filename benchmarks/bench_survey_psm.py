"""Survey claim — the 802.11 power-saving standard: dozing between TIM
beacons saves energy at a latency cost, tunable via the listen interval.

Sweeps the listen interval (1 = wake every beacon) against an always-on
station under Poisson downlink, reporting power and delivery latency.
"""

from conftest import run_once

from repro.apps import PoissonTraffic
from repro.devices import wlan_cf_card
from repro.mac import AccessPoint, DcfStation, Medium, PsmConfig, PsmStation
from repro.metrics import format_table
from repro.phy import Radio
from repro.sim import RandomStreams, Simulator

DURATION_S = 30.0


def run_psm_point(listen_interval):
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=2)
    ap = AccessPoint(sim, medium, "ap", rng=streams.stream("ap"))
    radio = Radio(sim, wlan_cf_card())
    latencies = []
    sent_at = {}

    def on_receive(frame):
        latencies.append(sim.now - sent_at.pop(frame.payload))

    if listen_interval == 0:  # always-on baseline
        station = DcfStation(
            sim, medium, "sta", rng=streams.stream("sta"), radio=radio,
            on_receive=on_receive,
        )
    else:
        station = PsmStation(
            sim, medium, "sta", ap, radio, rng=streams.stream("sta"),
            psm=PsmConfig(listen_interval=listen_interval),
            on_receive=on_receive,
        )

    source = PoissonTraffic(
        mean_interarrival_s=0.2, packet_bytes=1200, rng=streams.stream("traffic")
    )
    counter = iter(range(10**9))

    def to_ap(nbytes, kind):
        tag = next(counter)
        sent_at[tag] = sim.now
        ap.send_data("sta", nbytes, payload=tag)

    source.start(sim, to_ap, until_s=DURATION_S)
    sim.run(until=DURATION_S)
    mean_latency = sum(latencies) / len(latencies) if latencies else float("inf")
    return {
        "listen_interval": listen_interval or "always-on",
        "power_w": radio.average_power_w(),
        "mean_latency_s": mean_latency,
        "delivered": len(latencies),
    }


def run_psm_sweep():
    return [run_psm_point(li) for li in (0, 1, 2, 4, 8)]


def test_bench_psm(emit):
    rows = run_once(run_psm_sweep)
    emit(
        format_table(
            ["listen interval", "avg power (W)", "mean latency (s)", "delivered"],
            [[r["listen_interval"], r["power_w"], r["mean_latency_s"], r["delivered"]] for r in rows],
            title="Survey: 802.11 PSM — energy vs latency",
        )
    )
    always_on, psm1 = rows[0], rows[1]
    # PSM saves a large fraction of the listen power...
    assert psm1["power_w"] < 0.5 * always_on["power_w"]
    # ...at a latency cost (buffered until the next beacon).
    assert psm1["mean_latency_s"] > 2 * always_on["mean_latency_s"]
    # Longer listen intervals: monotonically less power, more latency.
    powers = [r["power_w"] for r in rows[1:]]
    latencies = [r["mean_latency_s"] for r in rows[1:]]
    assert powers == sorted(powers, reverse=True)
    assert latencies == sorted(latencies)
