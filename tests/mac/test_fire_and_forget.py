"""Fire-and-forget frames: ``notify=False`` drops only the completion event.

A frame queued with ``notify=False`` goes out exactly as one queued with
a completion event; the kernel schedules one event fewer per frame (the
completion nobody waits on), and two fewer per frame the access point
buffers for a dozing station (the completion and the relay that fed it).
EC-MAC's coordinator follows the same rule for its scheduled downlink.
"""

import pytest

from repro.build import (
    WorldBuilder,
    ecmac_world,
    psm_baseline_world,
    unap_hotspot_world,
)
from repro.devices import wlan_cf_card
from repro.mac import (
    AccessPoint,
    DcfStation,
    EcMacCoordinator,
    EcMacStation,
    Medium,
    PsmStation,
)
from repro.mac.frames import FrameKind
from repro.phy import Radio
from repro.sim import RandomStreams, Simulator

SIZES = (40, 300, 700, 1500, 1000, 1500, 60, 1200)


def _dcf_world(notify, n_frames):
    """Two senders and a receiver over a channel that loses every third
    data frame, so frames are retried and some are dropped."""
    sim = Simulator()
    lost = {"count": 0}

    def error_model(frame, now):
        if frame.kind is FrameKind.DATA:
            lost["count"] += 1
            return lost["count"] % 3 != 0
        return True

    medium = Medium(sim, error_model=error_model)
    streams = RandomStreams(seed=7)
    senders = [
        DcfStation(sim, medium, name, rng=streams.stream(name)) for name in ("a", "c")
    ]
    DcfStation(sim, medium, "b", rng=streams.stream("b"))
    returned = []

    def traffic(sim):
        for index in range(n_frames):
            yield sim.timeout(0.0007 * (index % 3))
            sender = senders[index % 2]
            destination = "ghost" if index % 5 == 4 else "b"  # never acked
            returned.append(
                sender.send(destination, SIZES[index % len(SIZES)], notify=notify)
            )

    sim.process(traffic(sim))
    sim.run()
    return sim, medium, senders, returned


def _dcf_counts(sim, medium, senders):
    return (
        [
            (s.frames_queued, s.frames_delivered, s.frames_dropped,
             s.retransmissions, s.bytes_sent)
            for s in senders
        ],
        (medium.frames_sent, medium.frames_delivered, medium.frames_collided,
         medium.busy_time_s),
        sim.now,
    )


@pytest.mark.parametrize("n_frames", [5, 20])
def test_dcf_frames_without_notify_save_one_event_each(n_frames):
    sim_n, medium_n, senders_n, events = _dcf_world(True, n_frames)
    sim_f, medium_f, senders_f, nones = _dcf_world(False, n_frames)
    assert _dcf_counts(sim_f, medium_f, senders_f) == _dcf_counts(
        sim_n, medium_n, senders_n
    )
    assert sum(s.frames_dropped for s in senders_n) > 0
    assert sum(s.retransmissions for s in senders_n) > 0
    assert all(event.processed for event in events)
    assert nones == [None] * n_frames
    assert sim_n.events_scheduled - sim_f.events_scheduled == n_frames


def _psm_world(notify, n_buffered, n_direct):
    """``n_buffered`` downlink frames for a dozing station, ``n_direct``
    for a station that left power save, sent by the AP."""
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=3)
    ap = AccessPoint(sim, medium, "ap", rng=streams.stream("ap"))
    received = {"doze": [], "awake": []}
    stations = [
        PsmStation(
            sim, medium, name, ap, Radio(sim, wlan_cf_card(), name=name),
            rng=streams.stream(name),
            on_receive=lambda frame, name=name: received[name].append(frame.payload),
        )
        for name in ("doze", "awake")
    ]
    stations[1].stop_power_save()
    returned = []

    def traffic(sim):
        yield sim.timeout(0.01)
        for index in range(max(n_buffered, n_direct)):
            if index < n_buffered:
                returned.append(
                    ap.send_data("doze", SIZES[index % 8], payload=index, notify=notify)
                )
            if index < n_direct:
                returned.append(
                    ap.send_data("awake", SIZES[index % 8], payload=index, notify=notify)
                )
            yield sim.timeout(0.013)

    sim.process(traffic(sim))
    sim.run(until=2.0)
    counts = (
        ap.frames_queued, ap.frames_delivered, ap.frames_dropped,
        ap.retransmissions, ap.bytes_sent, ap.ps_polls_served,
        medium.frames_sent, medium.frames_delivered, medium.frames_collided,
        medium.busy_time_s,
        [(s.radio.state, s.radio.transition_count) for s in stations],
    )
    return sim, counts, received, returned


@pytest.mark.parametrize("n_buffered, n_direct", [(1, 0), (0, 3), (9, 4)])
def test_ap_frames_without_notify_save_the_completion_and_the_relay(
    n_buffered, n_direct
):
    sim_n, counts_n, received_n, events = _psm_world(True, n_buffered, n_direct)
    sim_f, counts_f, received_f, nones = _psm_world(False, n_buffered, n_direct)
    assert counts_f == counts_n
    assert received_f == received_n == {
        "doze": list(range(n_buffered)), "awake": list(range(n_direct))
    }
    assert all(event.processed and event.value is True for event in events)
    assert nones == [None] * (n_buffered + n_direct)
    saved = sim_n.events_scheduled - sim_f.events_scheduled
    assert saved == 2 * n_buffered + n_direct


def _ecmac_world(notify, n_frames):
    """``n_frames`` downlink frames for two EC-MAC stations over a channel
    that loses every third data frame, so some wait a superframe."""
    sim = Simulator()
    lost = {"count": 0}

    def error_model(frame, now):
        if frame.kind is FrameKind.DATA:
            lost["count"] += 1
            return lost["count"] % 3 != 0
        return True

    medium = Medium(sim, error_model=error_model)
    coordinator = EcMacCoordinator(sim, medium)
    received = {"s0": [], "s1": []}
    stations = [
        EcMacStation(
            sim, medium, name, coordinator, Radio(sim, wlan_cf_card(), name=name),
            on_receive=lambda frame, name=name: received[name].append(frame.payload),
        )
        for name in received
    ]
    returned = []

    def traffic(sim):
        for index in range(n_frames):
            yield sim.timeout(0.017 * (index % 3))
            returned.append(coordinator.send_data(
                f"s{index % 2}", SIZES[index % 8], payload=index, notify=notify
            ))

    sim.process(traffic(sim))
    sim.run(until=2.0)
    counts = (
        coordinator.superframes, coordinator.frames_scheduled,
        coordinator.retransmissions,
        medium.frames_sent, medium.frames_delivered, medium.busy_time_s,
        [(s.radio.state, s.radio.transition_count, s.frames_received)
         for s in stations],
    )
    return sim, counts, received, returned


@pytest.mark.parametrize("n_frames", [1, 12])
def test_ecmac_frames_without_notify_save_one_event_each(n_frames):
    sim_n, counts_n, received_n, events = _ecmac_world(True, n_frames)
    sim_f, counts_f, received_f, nones = _ecmac_world(False, n_frames)
    assert counts_f == counts_n
    assert received_f == received_n
    assert sorted(received_n["s0"] + received_n["s1"]) == list(range(n_frames))
    if n_frames > 2:
        assert counts_n[2] > 0  # some frames missed a window and waited
    assert all(event.processed and event.value is True for event in events)
    assert nones == [None] * n_frames
    assert sim_n.events_scheduled - sim_f.events_scheduled == n_frames


def _notify_flags(monkeypatch, spec):
    """Run ``spec`` and return ``{(station type, notify)}`` of every data
    frame queued."""
    seen = set()
    enqueue = DcfStation.enqueue_frame

    def recording(self, frame, *, notify=True):
        if frame.kind is FrameKind.DATA:
            seen.add((type(self).__name__, notify))
        return enqueue(self, frame, notify=notify)

    monkeypatch.setattr(DcfStation, "enqueue_frame", recording)
    WorldBuilder(spec).run()
    return seen


def test_psm_world_sink_queues_fire_and_forget_frames(monkeypatch):
    spec = psm_baseline_world(n_clients=2, duration_s=2.0)
    assert _notify_flags(monkeypatch, spec) == {("AccessPoint", False)}


def test_unap_world_sink_queues_fire_and_forget_frames(monkeypatch):
    spec = unap_hotspot_world(n_clients=2, duration_s=1.0, seed=0)
    assert _notify_flags(monkeypatch, spec) == {("DcfStation", False)}


def test_ecmac_world_sink_queues_fire_and_forget_frames(monkeypatch):
    seen = set()
    send_data = EcMacCoordinator.send_data

    def recording(self, destination, payload_bytes, payload=None, *, notify=True):
        seen.add(notify)
        return send_data(self, destination, payload_bytes, payload, notify=notify)

    monkeypatch.setattr(EcMacCoordinator, "send_data", recording)
    WorldBuilder(ecmac_world(n_clients=2, duration_s=2.0)).run()
    assert seen == {False}
