"""ArrivalFeed against the eager pump it replaces.

:meth:`TrafficSource.start` is the reference: it sinks every arrival in
its own kernel dispatch.  An :class:`ArrivalFeed` must report, at every
backlog read, exactly the bytes the pump would have sunk by then —
including reads at an arrival's very fire instant, which the pump
decides by calendar order — while queueing one event per chunk, and
leave ``events_scheduled`` (so every later tie-break) unchanged.
"""

import random

import pytest

from repro.apps.traffic import (
    _PUMP_CHUNK,
    ArrivalFeed,
    Mp3Stream,
    OnOffTraffic,
    PoissonTraffic,
    TraceTraffic,
    TrafficSource,
)
from repro.core.server import ClientSession
from repro.sim import Interrupt, Simulator

UNTIL_S = 16.0


def _trace(rng):
    """Clustered arrivals: equal instants, and a prefix before the start."""
    times = []
    t = 0.0
    while len(times) < 2 * _PUMP_CHUNK + 40:
        times.extend([t] * rng.randint(1, 4))
        t += rng.choice([0.0, 0.001, 0.02, 0.3])
    return TraceTraffic([(t, rng.randint(1, 900), "x") for t in times])


SOURCES = {
    "mp3-cbr": lambda rng: Mp3Stream(),
    "mp3-vbr": lambda rng: Mp3Stream(vbr_fraction=0.3, rng=rng),
    "poisson": lambda rng: PoissonTraffic(0.02, 700, rng),
    "onoff": lambda rng: OnOffTraffic(
        rng, mean_on_s=1.0, mean_off_s=0.5, packet_interval_s=0.01
    ),
    "trace": _trace,
    # Exactly two chunks: the source runs dry on a chunk boundary.
    "two-chunks": lambda rng: TraceTraffic(
        [(0.05 * i, 100 + i, "x") for i in range(2 * _PUMP_CHUNK)]
    ),
    "empty": lambda rng: TraceTraffic([]),
}


def _fire_instants(source, start_s):
    """The pump's wake instant for every arrival (its ``now + (t - now)``
    chain, past-due arrivals sharing the previous wake)."""
    now = start_s
    fires = []
    for time_s, _nbytes, _kind in source.arrivals(UNTIL_S):
        if time_s > now:
            now = now + (time_s - now)
        fires.append(now)
    return fires


def _world(source_name, seed, lazy):
    """Run one world; return what every backlog read saw, plus totals.

    Both worlds see the same reader program, drawn from ``seed``: timers
    at random instants and at exact arrival fire instants, queued before
    the source starts (so before its reservations) or during the run
    (after them), some of which drain the backlog, create same-instant
    readers, or interrupt a watcher that reads from an urgent wakeup.
    """
    plan = random.Random(seed)
    start_s = plan.choice([0.0, 0.0, 0.37, 3.0])
    fires = _fire_instants(SOURCES[source_name](random.Random(seed)), start_s)
    sim = Simulator()
    session = ClientSession(client=None, backlog_bytes=plan.randint(0, 50))
    seen = []

    def read(tag):
        seen.append((tag, sim.now, session.backlog_bytes))

    def reader(_event):
        roll = plan.random()
        if roll > 0.7 and watcher.target is not None:
            watcher.interrupt()  # the watcher reads first, from urgent
        else:
            read("timer")
        if roll < 0.2:
            session.backlog_bytes -= min(session.backlog_bytes, plan.randint(0, 3000))
            read("drained")
        elif roll < 0.3:
            session.backlog_bytes = plan.randint(0, 100)
        if roll > 0.85:
            sim.timeout(0.0).callbacks.append(reader)
        if fires and plan.random() < 0.6:
            later = [f for f in fires if f >= sim.now]
            if later:
                at(plan.choice(later))

    def at(when):
        sim.bulk_timeouts([when])[0].callbacks.append(reader)

    def watch():
        while True:
            try:
                yield sim.timeout(1e9)
            except Interrupt:
                read("urgent")

    watcher = sim.process(watch())
    for _ in range(12):
        at(plan.uniform(0.0, UNTIL_S + 1.0))
    for when in plan.sample(fires, min(len(fires), 25)):
        if when >= start_s:
            at(when)
    sim.run(until=start_s)
    read("before-start")
    source = SOURCES[source_name](random.Random(seed))
    if lazy:
        session.feed = ArrivalFeed(source, sim, until_s=UNTIL_S)
    else:

        def sink(nbytes, _kind):
            session.backlog_bytes += nbytes

        source.start(sim, sink, until_s=UNTIL_S)
    for stop in sorted(plan.uniform(start_s, UNTIL_S) for _ in range(3)):
        sim.run(until=stop)
        read("between-runs")
    sim.run(until=UNTIL_S + 2.0)
    read("end")
    return seen, sim.events_scheduled


@pytest.mark.parametrize("source_name", sorted(SOURCES))
@pytest.mark.parametrize("seed", range(6))
def test_feed_reads_match_the_eager_pump(source_name, seed):
    reference, reference_events = _world(source_name, seed, lazy=False)
    seen, events = _world(source_name, seed, lazy=True)
    assert seen == reference
    assert events == reference_events


@pytest.mark.parametrize("lazy", [False, True])
def test_urgent_wakeup_sees_arrivals_dispatched_at_its_instant(lazy):
    """An interrupt carrier sorts before normal entries of its instant,
    yet runs after those already dispatched: the arrival at 1.0 counts."""
    sim = Simulator()
    session = ClientSession(client=None)
    source = TraceTraffic([(1.0, 40, "x"), (2.0, 2, "x")])
    if lazy:
        session.feed = ArrivalFeed(source, sim, until_s=5.0)
    else:

        def sink(nbytes, _kind):
            session.backlog_bytes += nbytes

        source.start(sim, sink, until_s=5.0)
    seen = []

    def watch():
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            seen.append((sim.now, session.backlog_bytes))

    watcher = sim.process(watch())
    sim.run(until=0.5)  # the arrival's number is reserved by now
    sim.bulk_timeouts([1.0])[0].callbacks.append(lambda _e: watcher.interrupt())
    sim.run(until=5.0)
    assert seen == [(1.0, 40)]


def test_feed_queues_one_event_per_chunk():
    sim = Simulator()
    dispatched = [0]
    step = sim.step

    def counted():
        dispatched[0] += 1
        step()

    sim.step = counted
    session = ClientSession(client=None)
    session.feed = ArrivalFeed(Mp3Stream(), sim, until_s=60.0)
    sim.run(until=60.0)
    frames = len(list(Mp3Stream().arrivals(60.0)))
    assert session.backlog_bytes == Mp3Stream().total_bytes(60.0)
    # Bootstrap plus one closing timeout per chunk.  The pump dispatches
    # its bootstrap, a timeout per frame after the first (due at t=0)
    # and its completion: the same numbers, all of them queued.
    assert dispatched[0] == 1 + -(-frames // _PUMP_CHUNK)
    assert sim.events_scheduled == 1 + (frames - 1) + 1


class _EmptyFrame(TrafficSource):
    def arrivals(self, until_s):
        yield (1.0, 0, "x")


def test_feed_rejects_empty_arrivals():
    sim = Simulator()
    ArrivalFeed(_EmptyFrame(), sim, until_s=5.0)
    with pytest.raises(ValueError, match="positive"):
        sim.run()


def test_session_without_feed_is_a_plain_counter():
    session = ClientSession(client=None, backlog_bytes=7)
    session.backlog_bytes += 5
    assert session.backlog_bytes == 12
    assert "backlog_bytes=12" in repr(session)
