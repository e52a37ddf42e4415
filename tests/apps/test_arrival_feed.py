"""ArrivalFeed against the eager pump it replaces.

:meth:`TrafficSource.start` is the reference: it sinks every arrival in
its own kernel dispatch.  An :class:`ArrivalFeed` must report, at every
backlog read, exactly the bytes the pump would have sunk by then —
including reads at an arrival's very fire instant, which the pump
decides by calendar order — while queueing one event per chunk, and
leave ``events_scheduled`` (so every later tie-break) unchanged.  A
feed built with ``resumed=True`` must match the pump of the same source
with every arrival at or before its start dropped.
"""

import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.traffic import (
    _PUMP_CHUNK,
    MP3_FRAME_INTERVAL_S,
    ArrivalFeed,
    Mp3Stream,
    OnOffTraffic,
    PoissonTraffic,
    TraceTraffic,
    TrafficSource,
    _cbr_plans,
)
from repro.core.server import ClientSession
from repro.sim import Simulator

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


class _Uncached(TrafficSource):
    """The same arrivals from a source the cache does not know: the feed
    plans them itself.  With ``after_s``, only those after it: the
    reference for a feed built with ``resumed=True``."""

    def __init__(self, inner, after_s=-math.inf):
        self.inner = inner
        self.after_s = after_s

    def arrivals(self, until_s):
        for arrival in self.inner.arrivals(until_s):
            if arrival[0] > self.after_s:
                yield arrival


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


def _world(source_name, seed, lazy, resumed=False):
    """Run one world; return what every backlog read saw, plus totals.

    Both worlds see the same reader program, drawn from ``seed``: timers
    at random instants and at exact arrival fire instants, queued before
    the source starts (so before its reservations) or during the run
    (after them), some of which drain the backlog or create same-instant
    readers.
    ``resumed`` starts a resumed feed, or pumps the source with its
    arrivals up to the start dropped.
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
        sim.timeout_at(when).callbacks.append(reader)

    for _ in range(12):
        at(plan.uniform(0.0, UNTIL_S + 1.0))
    for when in plan.sample(fires, min(len(fires), 25)):
        if when >= start_s:
            at(when)
    sim.run(until=start_s)
    read("before-start")
    source = SOURCES[source_name](random.Random(seed))
    if lazy:
        session.feed = ArrivalFeed(source, sim, until_s=UNTIL_S, resumed=resumed)
    else:

        def sink(nbytes, _kind):
            session.backlog_bytes += nbytes

        if resumed:
            source = _Uncached(source, after_s=start_s)
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
    for resumed in (False, True):
        reference, reference_events = _world(source_name, seed, lazy=False, resumed=resumed)
        seen, events = _world(source_name, seed, lazy=True, resumed=resumed)
        assert seen == reference, f"resumed={resumed}"
        assert events == reference_events, f"resumed={resumed}"


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


# -- the shared CBR plan cache --------------------------------------------------


class _RecordedFeed(ArrivalFeed):
    """Logs each pull: its instant, ``sim._seq`` after it, and the fire
    instant of the closing timeout it queued (None when the source ran
    dry), whose sequence number is then ``sim._seq``."""

    def __init__(self, source, sim, until_s, pulls, resumed=False):
        self.pulls = pulls
        super().__init__(source, sim, until_s, resumed)

    def _pull(self, event):
        super()._pull(event)
        closing = self._fires[-1] if self._fires else None
        self.pulls.append((self.sim.now, self.sim._seq, closing))


#: The instants an MP3 stream's frames arrive at (its repeated-addition
#: chain, which ``k * MP3_FRAME_INTERVAL_S`` matches only for some k).
_FRAME_TIMES = [time_s for time_s, _nbytes, _kind in Mp3Stream().arrivals(8.0)]

# Durations in frames: shorter than a chunk, exactly one chunk, one more,
# several chunks.
cbr_worlds = st.fixed_dictionaries(
    {
        "bitrate_bps": st.sampled_from([8_000.0, 128_000.0, 320_000.0]),
        "frames": st.sampled_from([40, _PUMP_CHUNK, _PUMP_CHUNK + 1, 3 * _PUMP_CHUNK + 7]),
        # Each feed's (start, resumed): 0, a random instant, a multiple of
        # the frame interval or a frame's arrival instant; every feed is
        # built twice, so the second of each pair hits the plan cache.
        "starts": st.lists(
            st.tuples(
                st.one_of(
                    st.just(0.0),
                    st.floats(0.0, 8.0),
                    st.integers(1, 300).map(lambda k: k * MP3_FRAME_INTERVAL_S),
                    st.sampled_from(_FRAME_TIMES),
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=3,
        ).map(lambda starts: sorted(starts * 2)),
        # (instant or arrival number, feed index): a reader at a random
        # instant, or at the exact fire instant of a feed's arrival.
        "reads": st.lists(
            st.tuples(
                st.one_of(st.floats(0.0, 22.0), st.integers(0, 3 * _PUMP_CHUNK)),
                st.integers(0, 5),
            ),
            max_size=30,
        ),
    }
)


def _cbr_world(world, cached):
    until_s = (world["frames"] - 0.5) * MP3_FRAME_INTERVAL_S
    sim = Simulator()
    feeds = []
    pulls = []
    settled = []

    def source(start_s, resumed, cached):
        """The feed's source; the uncached twin drops the resumed prefix
        itself."""
        stream = Mp3Stream(bitrate_bps=world["bitrate_bps"])
        if cached:
            return stream
        return _Uncached(stream, after_s=start_s if resumed else -math.inf)

    def read(index):
        if index < len(feeds):
            settled.append((index, sim.now, feeds[index].settle()))

    for when, index in world["reads"]:
        if isinstance(when, int):
            if index >= len(world["starts"]):
                continue
            now, resumed = world["starts"][index]
            arrivals = source(now, resumed, cached=False).arrivals(until_s)
            for time_s, _nbytes, _kind in islice(arrivals, when + 1):
                if time_s > now:
                    now = now + (time_s - now)
            when = now
        sim.timeout_at(when).callbacks.append(lambda _t, i=index: read(i))
    for start_s, resumed in world["starts"]:
        sim.run(until=start_s)
        log = []
        pulls.append(log)
        feed_source = source(start_s, resumed, cached)
        feeds.append(_RecordedFeed(feed_source, sim, until_s, log, cached and resumed))
    sim.run(until=max(until_s, sim.now) + 1.0)
    totals = [
        sum(v for i, _t, v in settled if i == n) + feed.settle()
        for n, feed in enumerate(feeds)
    ]
    pumped = [
        source(start_s, resumed, cached=False).total_bytes(until_s)
        for start_s, resumed in world["starts"]
    ]
    return {
        "settled": settled,
        "pulls": pulls,
        "totals": totals,
        "events": sim.events_scheduled,
    }, pumped


@given(cbr_worlds)
@settings(max_examples=120, derandomize=True, deadline=None)
def test_shared_cbr_plans_match_an_uncached_feed(world):
    _cbr_plans.cache_clear()
    cached, pumped = _cbr_world(world, cached=True)
    info = _cbr_plans.cache_info()
    # One miss per distinct (start, resumed), a hit for each feed after it.
    assert info.misses == len(set(world["starts"]))
    assert info.hits == len(world["starts"]) - info.misses
    reference, _ = _cbr_world(world, cached=False)
    assert cached == reference
    assert cached["totals"] == pumped


def test_only_cbr_sources_are_cached_and_the_cache_stays_bounded():
    _cbr_plans.cache_clear()
    sim = Simulator()
    rng = random.Random(3)
    ArrivalFeed(Mp3Stream(vbr_fraction=0.2, rng=rng), sim, 5.0)
    ArrivalFeed(PoissonTraffic(0.02, 700, rng), sim, 5.0)
    ArrivalFeed(_trace(rng), sim, 5.0)
    assert _cbr_plans.cache_info().currsize == 0
    ArrivalFeed(Mp3Stream(), sim, 5.0)
    ArrivalFeed(Mp3Stream(), sim, 5.0)
    assert _cbr_plans.cache_info()[:2] == (1, 1)  # (hits, misses)
    maxsize = _cbr_plans.cache_info().maxsize
    for index in range(3 * maxsize):
        ArrivalFeed(Mp3Stream(), sim, 5.0 + index)
        assert _cbr_plans.cache_info().currsize <= maxsize
    sim.run(until=30.0)
    assert _cbr_plans.cache_info().currsize == maxsize
