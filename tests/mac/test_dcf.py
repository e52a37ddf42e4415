"""Tests for the DCF station: contention, ACKs, retries, energy hooks."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.devices import wlan_cf_card
from repro.mac import DcfConfig, DcfStation, Medium
from repro.mac.frames import BROADCAST, Dot11Timing, Frame, FrameKind
from repro.mac.spatial import SpatialMedium
from repro.phy import Radio
from repro.sim import RandomStreams, Simulator
from tests.mac.per_slot_reference import PerSlotDcfStation


def make_pair(error_model=None, seed=0):
    sim = Simulator()
    medium = Medium(sim, error_model=error_model)
    streams = RandomStreams(seed=seed)
    received = []
    a = DcfStation(sim, medium, "a", rng=streams.stream("a"))
    b = DcfStation(
        sim,
        medium,
        "b",
        rng=streams.stream("b"),
        on_receive=lambda frame: received.append(frame),
    )
    return sim, medium, a, b, received


def test_single_frame_delivery_and_ack():
    sim, medium, a, b, received = make_pair()
    results = []

    def sender(sim):
        ok = yield a.send("b", 1500, payload="hello")
        results.append((sim.now, ok))

    sim.process(sender(sim))
    sim.run()
    assert results[0][1] is True
    assert len(received) == 1
    assert received[0].payload == "hello"
    assert a.frames_delivered == 1
    assert a.frames_dropped == 0
    assert b.bytes_received == 1500


def test_delivery_takes_at_least_difs_plus_airtime():
    sim, medium, a, b, received = make_pair()
    timing = a.timing
    results = []

    def sender(sim):
        yield a.send("b", 1500)
        results.append(sim.now)

    sim.process(sender(sim))
    sim.run()
    floor = (
        timing.difs_s
        + timing.data_airtime_s(1500, a.config.rate_bps)
        + timing.sifs_s
        + timing.ack_airtime_s()
    )
    assert results[0] >= floor


def test_many_frames_fifo_order():
    sim, medium, a, b, received = make_pair()

    def sender(sim):
        events = [a.send("b", 500, payload=i) for i in range(10)]
        for event in events:
            yield event

    sim.process(sender(sim))
    sim.run()
    assert [frame.payload for frame in received] == list(range(10))


def test_contending_stations_all_deliver():
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=3)
    received = []
    DcfStation(
        sim, medium, "sink", rng=streams.stream("sink"),
        on_receive=lambda f: received.append(f),
    )
    stations = [
        DcfStation(sim, medium, f"s{i}", rng=streams.stream(f"s{i}"))
        for i in range(4)
    ]

    def burst(sim, station):
        for j in range(5):
            yield station.send("sink", 700, payload=(station.address, j))

    for station in stations:
        sim.process(burst(sim, station))
    sim.run()
    assert len(received) == 20
    # Collisions may happen, but retries must recover every frame.
    assert all(s.frames_dropped == 0 for s in stations)


def test_lossy_channel_causes_retries_then_delivers():
    # Fail the first two data transmissions, then let everything through.
    failures = {"remaining": 2}

    def error_model(frame, now):
        if frame.kind is FrameKind.DATA and failures["remaining"] > 0:
            failures["remaining"] -= 1
            return False
        return True

    sim, medium, a, b, received = make_pair(error_model=error_model)
    results = []

    def sender(sim):
        ok = yield a.send("b", 1000)
        results.append(ok)

    sim.process(sender(sim))
    sim.run()
    assert results == [True]
    assert a.retransmissions == 2
    assert len(received) == 1


def test_total_loss_drops_after_retry_limit():
    sim, medium, a, b, received = make_pair(error_model=lambda f, n: False)
    results = []

    def sender(sim):
        ok = yield a.send("b", 1000)
        results.append(ok)

    sim.process(sender(sim))
    sim.run()
    assert results == [False]
    assert a.frames_dropped == 1
    assert received == []


def test_lost_ack_causes_duplicate_suppression():
    # Data frames pass; every ACK is destroyed.
    def error_model(frame, now):
        return frame.kind is not FrameKind.ACK

    sim, medium, a, b, received = make_pair(error_model=error_model)
    results = []

    def sender(sim):
        ok = yield a.send("b", 1000, payload="once")
        results.append(ok)

    sim.process(sender(sim))
    sim.run()
    # Sender never sees an ACK: reports failure after exhausting retries...
    assert results == [False]
    # ...but the receiver got the frame exactly once (dedup by seq).
    assert len(received) == 1


def test_broadcast_is_fire_and_forget():
    sim, medium, a, b, received = make_pair()
    all_frames = []
    b.on_receive = lambda frame: all_frames.append(frame)
    results = []

    def sender(sim):
        frame = Frame(FrameKind.DATA, "a", BROADCAST, payload_bytes=100)
        ok = yield a.enqueue_frame(frame)
        results.append(ok)

    sim.process(sender(sim))
    sim.run()
    assert results == [True]
    # No ACK was expected or sent.
    assert medium.frames_sent == 1


def test_queue_length_and_stats():
    sim, medium, a, b, received = make_pair()
    for i in range(5):
        a.send("b", 100)
    assert a.frames_queued == 5
    sim.run()
    assert a.frames_delivered == 5
    assert a.bytes_sent == 500


def test_default_backoff_stream_ignores_the_hash_seed():
    """Without an ``rng`` a station draws from a stream derived from its
    address, the same in every interpreter whatever its hash salt."""
    source = (
        "from repro.mac import DcfStation, Medium\n"
        "from repro.sim import Simulator\n"
        "sim = Simulator()\n"
        "rng = DcfStation(sim, Medium(sim), 'sta').rng\n"
        "print([rng.randint(0, 31) for _ in range(8)])\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    draws = set()
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )
        completed = subprocess.run(
            [sys.executable, "-c", source],
            check=True, capture_output=True, text=True, env=env,
        )
        draws.add(completed.stdout.strip())
    assert len(draws) == 1
    expected = RandomStreams(seed=0).stream("sta")
    assert draws == {str([expected.randint(0, 31) for _ in range(8)])}


def test_radio_tx_energy_accounted():
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=1)
    radio = Radio(sim, wlan_cf_card())
    a = DcfStation(sim, medium, "a", rng=streams.stream("a"), radio=radio)
    DcfStation(sim, medium, "b", rng=streams.stream("b"))

    def sender(sim):
        yield a.send("b", 1500)

    sim.process(sender(sim))
    sim.run()
    airtime = a.timing.data_airtime_s(1500, a.config.rate_bps)
    assert radio.time_in_state("tx") == pytest.approx(airtime)


def test_receiver_radio_charged_rx_delta():
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=1)
    radio = Radio(sim, wlan_cf_card())
    a = DcfStation(sim, medium, "a", rng=streams.stream("a"))
    DcfStation(sim, medium, "b", rng=streams.stream("b"), radio=radio)

    def sender(sim):
        yield a.send("b", 1500)

    sim.process(sender(sim))
    sim.run()
    airtime = a.timing.data_airtime_s(1500, a.config.rate_bps)
    model = wlan_cf_card()
    rx_delta = (model.power("rx") - model.power("idle")) * airtime
    idle_energy = model.power("idle") * sim.now
    # b transmitted one ACK as well.
    ack_airtime = a.timing.ack_airtime_s()
    tx_extra = (model.power("tx") - model.power("idle")) * ack_airtime
    expected = idle_energy + rx_delta + tx_extra
    assert radio.energy_j() == pytest.approx(expected, rel=1e-6)


def test_dozing_radio_hears_nothing():
    sim = Simulator()
    medium = Medium(sim)
    streams = RandomStreams(seed=1)
    radio = Radio(sim, wlan_cf_card())
    received = []
    a = DcfStation(sim, medium, "a", rng=streams.stream("a"))
    DcfStation(
        sim, medium, "b", rng=streams.stream("b"), radio=radio,
        on_receive=lambda f: received.append(f),
    )

    def driver(sim):
        yield radio.transition_to("doze")
        result = yield a.send("b", 1000)
        assert result is False  # no ACK ever comes back

    sim.process(driver(sim))
    sim.run()
    assert received == []
    assert a.frames_dropped == 1


# -- single-timer backoff vs the per-slot reference ---------------------------

TIMING = Dot11Timing()


def _boundary(base: float, slots: int) -> float:
    """Where a countdown started idle at ``base`` ends its DIFS + ``slots``.

    Repeated float addition, exactly as the slot-by-slot chain lands.
    """
    instant = base + TIMING.difs_s
    for _ in range(slots):
        instant += TIMING.slot_s
    return instant


# An instant is a random float, or exactly on a DIFS/slot boundary of a
# countdown that started idle at time 0 or at a station arrival
# (``anchor`` indexes time 0 followed by the arrivals).
instants = st.one_of(
    st.tuples(st.just("at"), st.floats(0.0, 4e-3, allow_nan=False)),
    st.tuples(st.just("on"), st.integers(0, 8), st.integers(0, 40)),
)

contention_worlds = st.fixed_dictionaries(
    {
        "n_stations": st.integers(1, 5),
        "spatial": st.booleans(),
        "hidden": st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4))),
        "rts": st.booleans(),
        "seed": st.integers(0, 2**16),
        # (instant, source index, destination index, payload bytes); a
        # destination index of n_stations or more means broadcast.
        "arrivals": st.lists(
            st.tuples(
                instants,
                st.integers(0, 4),
                st.integers(0, 5),
                st.sampled_from([40, 300, 700, 1500]),
            ),
            min_size=1,
            max_size=14,
        ),
        # Broadcasts put straight on the air by a non-contending
        # interferer at exact instants, the way no DCF station would.
        "injections": st.lists(
            st.tuples(instants, st.sampled_from([40, 300])), max_size=3
        ),
    }
)


def _resolve(instant, anchors):
    if instant[0] == "at":
        return instant[1]
    _, anchor, slots = instant
    return _boundary(anchors[anchor % len(anchors)], slots)


def _run_contention_world(station_cls, world):
    """One small contention world; returns what it did."""
    n = world["n_stations"]
    sim = Simulator()
    if world["spatial"]:
        hidden = {frozenset(pair) for pair in world["hidden"]}

        def audible(source, listener):
            if source == listener or "x" in (source, listener):
                return True  # the interferer is heard everywhere
            return frozenset((int(source[1:]), int(listener[1:]))) not in hidden

        medium = SpatialMedium(sim, audibility=audible)
    else:
        medium = Medium(sim)
    streams = RandomStreams(seed=world["seed"])
    config = DcfConfig(rts_threshold_bytes=500 if world["rts"] else None)
    stations = [
        station_cls(
            sim, medium, f"s{i}", rng=streams.stream(f"s{i}"), config=config
        )
        for i in range(n)
    ]
    starts = []
    transmit = medium.transmit

    def recording_transmit(frame):
        starts.append(
            (sim.now, frame.source, frame.destination, frame.kind.value,
             frame.payload_bytes)
        )
        return transmit(frame)

    medium.transmit = recording_transmit

    anchors = [0.0]
    for instant, *_ in world["arrivals"]:
        anchors.append(_resolve(instant, anchors))
    arrivals = sorted(zip(anchors[1:], world["arrivals"]), key=lambda a: a[0])
    injections = sorted(
        (_resolve(instant, anchors), size) for instant, size in world["injections"]
    )
    outcomes = []

    def traffic(sim):
        timers = [sim.timeout_at(when) for when, _ in arrivals]
        for index, (timer, (_when, (_instant, source, destination, size))) in (
            enumerate(zip(timers, arrivals))
        ):
            yield timer
            sender = stations[source % n]
            if destination >= n:
                target = BROADCAST
            elif destination % n == source % n:
                target = "ghost"  # unregistered: every attempt goes unacked
            else:
                target = f"s{destination % n}"
            done = sender.send(target, size)
            done.callbacks.append(
                lambda event, index=index: outcomes.append(
                    (sim.now, index, event.value)
                )
            )

    def interferer(sim):
        timers = [sim.timeout_at(when) for when, _ in injections]
        for timer, (_when, size) in zip(timers, injections):
            yield timer
            medium.transmit(Frame(FrameKind.DATA, "x", BROADCAST, payload_bytes=size))

    sim.process(interferer(sim))
    sim.process(traffic(sim))
    sim.run()
    # Stations that finish their backoff at the same instant may start
    # in either order (the single timer is armed earlier than the last
    # per-slot timer would be); they collide either way, so the starts
    # and completions are compared as sorted lists.  The medium's
    # busy_time_s is left out: it sums the same airtimes in start order,
    # so such a swap can move its last bit.
    observed = {
        "starts": sorted(starts),
        "outcomes": sorted(outcomes),
        "medium": (
            medium.frames_sent,
            medium.frames_delivered,
            medium.frames_collided,
        ),
        "stations": [
            (
                s.frames_delivered,
                s.frames_dropped,
                s.retransmissions,
                s.bytes_sent,
                s.bytes_received,
                s.rts_sent,
                s.cts_received,
            )
            for s in stations
        ],
    }
    return observed


@given(contention_worlds)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_single_timer_backoff_matches_per_slot_reference(world):
    reference = _run_contention_world(PerSlotDcfStation, world)
    assert _run_contention_world(DcfStation, world) == reference


class _FixedDraw:
    """A backoff "stream" that always draws the same slot count."""

    def __init__(self, slots):
        self.slots = slots

    def randint(self, low, high):
        return self.slots


@pytest.mark.parametrize("station_cls", [DcfStation, PerSlotDcfStation])
def test_busy_edge_triggered_before_a_slot_end_freezes_the_countdown(station_cls):
    """A transmission started exactly at a slot end by a timer armed
    earlier than the station's own slot timer.  Whether its busy edge is
    already processed or only triggered when the station resumes there,
    that slot counts and the countdown freezes."""
    sim = Simulator()
    medium = Medium(sim)
    a = station_cls(sim, medium, "a", rng=_FixedDraw(5))
    station_cls(sim, medium, "b", rng=_FixedDraw(0))
    interference = Frame(FrameKind.DATA, "x", BROADCAST, payload_bytes=300)
    edge = _boundary(0.0, 2)
    starts = []
    transmit = medium.transmit

    def recording_transmit(frame):
        starts.append((sim.now, frame.source))
        return transmit(frame)

    medium.transmit = recording_transmit

    def interferer(sim):
        yield sim.timeout_at(edge)
        yield medium.transmit(interference)

    sim.process(interferer(sim))
    a.send("b", 100)
    sim.run()
    idle_again = edge + interference.airtime_s(TIMING)
    # Two slots elapsed (the one ending on the edge counts); the other
    # three run after a fresh DIFS once the air is idle again.
    assert starts[:2] == [(edge, "x"), (_boundary(idle_again, 3), "a")]
    assert medium.frames_collided == 0
