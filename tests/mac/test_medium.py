"""Tests for the shared medium: delivery, collisions, carrier sense."""

import pytest

from repro.mac import Dot11Timing, Frame, FrameKind, Medium
from repro.mac.frames import BROADCAST
from repro.mac.spatial import SpatialMedium
from repro.sim import Simulator


class RecordingSink:
    """A minimal station that records delivered frames."""

    def __init__(self, address):
        self.address = address
        self.frames = []

    def on_frame(self, frame):
        self.frames.append(frame)


def make_medium(**kwargs):
    sim = Simulator()
    medium = Medium(sim, **kwargs)
    return sim, medium


def data_frame(src, dst, nbytes=1000):
    return Frame(FrameKind.DATA, src, dst, payload_bytes=nbytes, rate_bps=11e6)


def test_registration_rejects_duplicates():
    sim, medium = make_medium()
    medium.register(RecordingSink("a"))
    with pytest.raises(ValueError):
        medium.register(RecordingSink("a"))


def test_registration_rejects_broadcast_address():
    sim, medium = make_medium()
    with pytest.raises(ValueError):
        medium.register(RecordingSink(BROADCAST))


def test_unicast_delivery():
    sim, medium = make_medium()
    receiver = RecordingSink("rx")
    medium.register(receiver)
    results = []

    def sender(sim):
        delivered = yield medium.transmit(data_frame("tx", "rx"))
        results.append(delivered)

    sim.process(sender(sim))
    sim.run()
    assert results == [True]
    assert len(receiver.frames) == 1
    assert medium.frames_delivered == 1


def test_delivery_to_unknown_address_fails_quietly():
    sim, medium = make_medium()
    results = []

    def sender(sim):
        delivered = yield medium.transmit(data_frame("tx", "ghost"))
        results.append(delivered)

    sim.process(sender(sim))
    sim.run()
    assert results == [False]


def test_broadcast_reaches_everyone_but_sender():
    sim, medium = make_medium()
    stations = [RecordingSink(f"s{i}") for i in range(3)]
    for station in stations:
        medium.register(station)

    def sender(sim):
        frame = Frame(FrameKind.BEACON, "s0", BROADCAST, payload_bytes=50)
        yield medium.transmit(frame)

    sim.process(sender(sim))
    sim.run()
    assert len(stations[0].frames) == 0  # sender does not hear itself
    assert len(stations[1].frames) == 1
    assert len(stations[2].frames) == 1


def test_delivery_happens_at_end_of_airtime():
    sim, medium = make_medium()
    receiver = RecordingSink("rx")
    medium.register(receiver)
    timing = Dot11Timing()
    frame = data_frame("tx", "rx", nbytes=1500)
    airtime = frame.airtime_s(timing)
    times = []

    def sender(sim):
        yield medium.transmit(frame)
        times.append(sim.now)

    sim.process(sender(sim))
    sim.run()
    assert times[0] == pytest.approx(airtime)


def test_overlapping_transmissions_collide():
    sim, medium = make_medium()
    rx_a, rx_b = RecordingSink("a"), RecordingSink("b")
    medium.register(rx_a)
    medium.register(rx_b)
    results = []

    def tx1(sim):
        delivered = yield medium.transmit(data_frame("x", "a", 1500))
        results.append(("tx1", delivered))

    def tx2(sim):
        yield sim.timeout(0.0001)  # starts mid-flight of tx1
        delivered = yield medium.transmit(data_frame("y", "b", 1500))
        results.append(("tx2", delivered))

    sim.process(tx1(sim))
    sim.process(tx2(sim))
    sim.run()
    assert results == [("tx1", False), ("tx2", False)]
    assert medium.frames_collided == 2
    assert rx_a.frames == []
    assert rx_b.frames == []


def test_sequential_transmissions_do_not_collide():
    sim, medium = make_medium()
    receiver = RecordingSink("rx")
    medium.register(receiver)

    def sender(sim):
        yield medium.transmit(data_frame("tx", "rx"))
        yield medium.transmit(data_frame("tx", "rx"))

    sim.process(sender(sim))
    sim.run()
    assert len(receiver.frames) == 2
    assert medium.frames_collided == 0


def test_carrier_sense_idle_busy():
    sim, medium = make_medium()
    observations = []

    def sender(sim):
        yield sim.timeout(1.0)
        yield medium.transmit(data_frame("tx", "rx"))

    def observer(sim):
        observations.append(("initially_idle", medium.is_idle))
        yield medium.wait_busy()
        observations.append(("busy_at", round(sim.now, 6), medium.is_idle))
        yield medium.wait_idle()
        observations.append(("idle_again", medium.is_idle))

    sim.process(sender(sim))
    sim.process(observer(sim))
    sim.run()
    assert observations[0] == ("initially_idle", True)
    assert observations[1][0] == "busy_at" and observations[1][2] is False
    assert observations[2] == ("idle_again", True)


def test_wait_idle_fires_immediately_when_idle():
    sim, medium = make_medium()
    times = []

    def observer(sim):
        yield medium.wait_idle()
        times.append(sim.now)

    sim.process(observer(sim))
    sim.run()
    assert times == [0.0]


def test_error_model_drops_frames():
    sim, medium = make_medium(error_model=lambda frame, now: False)
    receiver = RecordingSink("rx")
    medium.register(receiver)
    results = []

    def sender(sim):
        delivered = yield medium.transmit(data_frame("tx", "rx"))
        results.append(delivered)

    sim.process(sender(sim))
    sim.run()
    assert results == [False]
    assert medium.frames_errored == 1
    assert receiver.frames == []


def test_utilisation_accounting():
    sim, medium = make_medium()
    frame = data_frame("tx", "rx", nbytes=1500)
    airtime = frame.airtime_s(medium.timing)

    def sender(sim):
        yield medium.transmit(frame)

    sim.process(sender(sim))
    sim.run(until=10.0)
    assert medium.utilisation() == pytest.approx(airtime / 10.0)


def test_unregister_stops_delivery():
    sim, medium = make_medium()
    receiver = RecordingSink("rx")
    medium.register(receiver)
    medium.unregister("rx")

    def sender(sim):
        yield medium.transmit(data_frame("tx", "rx"))

    sim.process(sender(sim))
    sim.run()
    assert receiver.frames == []


def test_address_aware_api_on_base_medium_is_global():
    """The base medium has no geometry: per-address carrier sense is
    just the global state, and address-tagged waiters behave like
    untagged ones."""
    sim, medium = make_medium()
    assert medium.is_idle_for("anyone")
    fired = []

    def observer(sim):
        yield medium.wait_busy("sta-x")
        fired.append(("busy", sim.now))
        yield medium.wait_idle("sta-x")
        fired.append(("idle", sim.now))

    def sender(sim):
        yield sim.timeout(0.5)
        yield medium.transmit(data_frame("tx", "rx"))

    sim.process(observer(sim))
    sim.process(sender(sim))
    sim.run()
    assert [tag for tag, _t in fired] == ["busy", "idle"]


@pytest.mark.parametrize("medium_cls", [Medium, SpatialMedium])
def test_transmit_is_one_event_per_frame_valued_with_delivery(medium_cls):
    """The frame goes on the air at the call; the returned event is its
    airtime timer and carries the delivered flag when waiters resume."""
    sim = Simulator()
    medium = medium_cls(sim)
    receiver = RecordingSink("rx")
    medium.register(receiver)
    airtime = data_frame("tx", "rx").airtime_s(medium.timing)
    seen = []

    def controller(sim):
        before = sim.events_scheduled
        clean = medium.transmit(data_frame("tx", "rx"))
        assert not medium.is_idle
        delivered = yield clean
        seen.append((sim.now, delivered, len(receiver.frames), medium.is_idle))
        # Two frames overlapping from the same instant: one event each.
        first = medium.transmit(data_frame("a", "rx"))
        second = medium.transmit(data_frame("b", "rx"))
        seen.append((yield first))
        seen.append((yield second))
        seen.append((sim.now, len(receiver.frames), medium.is_idle))
        seen.append(sim.events_scheduled - before)

    sim.process(controller(sim))
    sim.run()
    assert seen == [
        (airtime, True, 1, True),
        False,
        False,
        (2 * airtime, 1, True),
        3,
    ]
