"""Tests for 802.11 power-save mode: beacons, TIM, PS-Polls, doze energy."""

import pytest

from repro.devices import wlan_cf_card
from repro.mac import AccessPoint, DcfStation, Medium, PsmConfig, PsmStation
from repro.phy import Radio
from repro.sim import RandomStreams, Simulator


def make_network(n_stations=1, seed=0, psm=None):
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=seed)
    ap = AccessPoint(sim, medium, "ap", rng=streams.stream("ap"))
    stations, radios, received = [], [], {}

    for i in range(n_stations):
        address = f"sta{i}"
        radio = Radio(sim, wlan_cf_card(), name=address)
        received[address] = []

        def sink(frame, addr=address):
            received[addr].append(frame)

        station = PsmStation(
            sim, medium, address, ap, radio,
            rng=streams.stream(address), psm=psm, on_receive=sink,
        )
        stations.append(station)
        radios.append(radio)
    return sim, medium, ap, stations, radios, received


def test_ap_buffers_for_ps_station():
    sim, medium, ap, stations, radios, received = make_network()
    ap.send_data("sta0", 1000)
    assert ap.buffered_count("sta0") == 1


def test_buffered_frame_delivered_after_beacon():
    sim, medium, ap, stations, radios, received = make_network()
    done = {}

    def traffic(sim):
        yield sim.timeout(0.01)
        event = ap.send_data("sta0", 1000, payload="wake-up data")
        ok = yield event
        done["time"] = sim.now
        done["ok"] = ok

    sim.process(traffic(sim))
    sim.run(until=0.5)
    assert done["ok"] is True
    # Delivery waits for the first beacon (t=0.1) + poll exchange.
    assert done["time"] > 0.1
    assert done["time"] < 0.2
    assert [f.payload for f in received["sta0"]] == ["wake-up data"]


def test_station_dozes_most_of_the_time_when_idle():
    sim, medium, ap, stations, radios, received = make_network()
    sim.run(until=10.0)
    doze = radios[0].time_in_state("doze")
    assert doze > 8.5
    # Average power far below always-listening.
    assert radios[0].average_power_w() < 0.3


def test_multiple_buffered_frames_drain_in_one_wake():
    sim, medium, ap, stations, radios, received = make_network()

    def traffic(sim):
        yield sim.timeout(0.01)
        for i in range(5):
            ap.send_data("sta0", 800, payload=i)

    sim.process(traffic(sim))
    sim.run(until=0.5)
    assert [f.payload for f in received["sta0"]] == [0, 1, 2, 3, 4]
    # All five went out in the first wake window: 5 polls, no extra cycle.
    assert stations[0].polls_sent == 5


def test_more_data_flag_set_while_buffer_nonempty():
    sim, medium, ap, stations, radios, received = make_network()

    def traffic(sim):
        yield sim.timeout(0.01)
        for i in range(3):
            ap.send_data("sta0", 500, payload=i)

    sim.process(traffic(sim))
    sim.run(until=0.3)
    flags = [f.more_data for f in received["sta0"]]
    assert flags == [True, True, False]


def test_tim_lists_only_buffered_stations():
    sim, medium, ap, stations, radios, received = make_network(n_stations=3)
    ap.send_data("sta1", 400)
    assert ap.current_tim() == frozenset({"sta1"})


def test_non_ps_station_gets_immediate_delivery():
    sim, medium, ap, stations, radios, received = make_network(n_stations=0)
    payloads = []
    DcfStation(
        sim, medium, "sta0", radio=Radio(sim, wlan_cf_card(), name="sta0"),
        on_receive=lambda frame: payloads.append(frame.payload),
    )
    times = {}

    def traffic(sim):
        yield sim.timeout(0.005)
        ok = yield ap.send_data("sta0", 1000, payload="direct")
        times["done"] = sim.now
        assert ok is True

    sim.process(traffic(sim))
    sim.run(until=0.5)
    assert ap.buffered_count("sta0") == 0
    assert times["done"] < 0.1  # no beacon wait
    assert payloads == ["direct"]


def test_listen_interval_skips_beacons():
    psm = PsmConfig(listen_interval=4)
    sim, medium, ap, stations, radios, received = make_network(psm=psm)
    sim.run(until=2.0)
    # ~20 beacons sent, station wakes for every 4th.
    assert stations[0].beacons_heard <= 6
    sparse_power = radios[0].average_power_w()

    sim2, _, _, stations2, radios2, _ = make_network()
    sim2.run(until=2.0)
    assert radios2[0].average_power_w() > sparse_power


def test_stations_independent_buffers():
    sim, medium, ap, stations, radios, received = make_network(n_stations=2)

    def traffic(sim):
        yield sim.timeout(0.01)
        ap.send_data("sta0", 300, payload="zero")
        ap.send_data("sta1", 300, payload="one")

    sim.process(traffic(sim))
    sim.run(until=0.5)
    assert [f.payload for f in received["sta0"]] == ["zero"]
    assert [f.payload for f in received["sta1"]] == ["one"]


def test_continuous_traffic_sustained_delivery():
    sim, medium, ap, stations, radios, received = make_network()

    def traffic(sim):
        for i in range(30):
            yield sim.timeout(0.05)
            ap.send_data("sta0", 1200, payload=i)

    sim.process(traffic(sim))
    sim.run(until=3.0)
    payloads = [f.payload for f in received["sta0"]]
    assert payloads == list(range(30))
    # Even under steady traffic the station still dozes between beacons.
    assert radios[0].time_in_state("doze") > 1.5


def test_psm_station_requires_radio():
    sim = Simulator()
    medium = Medium(sim)
    ap = AccessPoint(sim, medium, "ap")
    with pytest.raises((ValueError, AttributeError)):
        PsmStation(sim, medium, "sta", ap, radio=None)


def test_invalid_listen_interval():
    sim = Simulator()
    medium = Medium(sim)
    ap = AccessPoint(sim, medium, "ap")
    radio = Radio(sim, wlan_cf_card())
    with pytest.raises(ValueError):
        PsmStation(
            sim, medium, "sta", ap, radio, psm=PsmConfig(listen_interval=0)
        )
