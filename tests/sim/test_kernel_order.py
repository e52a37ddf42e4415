"""Kernel-ordering property tests: ``Simulator`` vs a reference heap.

``Simulator`` must dispatch in *exactly* the total order a single global
heap over ``(time, seq)`` produces — the scenario goldens
byte-pin this, and these tests pin it at the kernel level with random
schedules, cascading (run-time) schedules and bulk timeouts, with and
without a trace and a profiler attached.
"""

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import KernelProfiler, TraceBus
from repro.sim import Simulator
from repro.sim.events import Event
from repro.sim.resources import Store

# Sub-slot, frame-scale and long delays, with exact ties among them.
delay_values = st.one_of(
    st.floats(min_value=0.0, max_value=1e-4, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1e-3, 2e-3, 0.5e-3, 1.0, 1.0 + 1e-3, 123.456]),
)

schedule_entries = st.lists(delay_values, min_size=1, max_size=60)


class ReferenceKernel:
    """The oracle scheduler: one global heap, nothing else."""

    def __init__(self):
        self._heap = []
        self._seq = itertools.count(1)
        self.now = 0.0
        self.fired = []

    def schedule(self, tag, delay):
        when = self.now + delay
        heapq.heappush(self._heap, (when, next(self._seq), tag))

    def run(self, program):
        while self._heap:
            when, _seq, tag = heapq.heappop(self._heap)
            self.now = when
            self.fired.append(tag)
            for child_tag, delay in program.get(tag, ()):
                self.schedule(child_tag, delay)


def _trigger(sim, delay, callback):
    """Schedule a bare event the way the kernel does internally."""
    event = Event(sim)
    event.callbacks.append(callback)
    event._state = 1  # triggered
    sim._schedule(event, delay)
    return event


def _run_program(sim, initial, program):
    """Replay a cascading schedule program on a real Simulator."""
    fired = []

    def make_callback(tag):
        def on_fire(_event):
            fired.append(tag)
            for child_tag, delay in program.get(tag, ()):
                _trigger(sim, delay, make_callback(child_tag))

        return on_fire

    for tag, delay in initial:
        _trigger(sim, delay, make_callback(tag))
    sim.run()
    return fired


@given(schedule_entries)
@settings(max_examples=60)
def test_flat_schedule_matches_reference_heap(entries):
    """Random up-front schedules dispatch in reference-heap order."""
    sim = Simulator()
    reference = ReferenceKernel()
    fired = []
    for tag, delay in enumerate(entries):
        _trigger(sim, delay, lambda _e, tag=tag: fired.append(tag))
        reference.schedule(tag, delay)
    sim.run()
    reference.run({})
    assert fired == reference.fired


@given(
    st.lists(delay_values, min_size=1, max_size=12),
    st.lists(st.lists(delay_values, max_size=4), min_size=1, max_size=12),
)
@settings(max_examples=60)
def test_cascading_schedule_matches_reference_heap(roots, spawn_lists):
    """Events scheduled *while running* keep the order.

    Each schedule runs plain, traced, profiled and traced+profiled:
    tracing and profiling observe dispatch, neither may reorder it.
    """
    # program: tag -> children spawned when the tag fires.  Child tags are
    # fresh so the cascade terminates after one generation.
    program = {}
    next_tag = len(roots)
    for tag, spawns in enumerate(spawn_lists[: len(roots)]):
        children = []
        for delay in spawns:
            children.append((next_tag, delay))
            next_tag += 1
        program[tag] = children

    initial = list(enumerate(roots))

    reference = ReferenceKernel()
    for tag, delay in initial:
        reference.schedule(tag, delay)
    reference.run(program)

    for traced, profiled in itertools.product((False, True), repeat=2):
        bus = TraceBus() if traced else None
        sim = Simulator(trace=bus)
        profiler = KernelProfiler()
        if profiled:
            profiler.install(sim)
        fired = _run_program(sim, initial, program)
        assert fired == reference.fired, (traced, profiled)
        if traced:
            assert len(bus.events(layer="sim", kind="dispatch")) == len(fired)
        if profiled:
            assert profiler.steps == len(fired)


@given(st.lists(delay_values, min_size=2, max_size=30), delay_values)
@settings(max_examples=60)
def test_run_until_horizon_preserves_pending_order(delays, horizon):
    """Events beyond run(until) stay queued and fire correctly later."""
    sim = Simulator()
    fired = []
    for tag, delay in enumerate(delays):
        timeout = sim.timeout(delay)
        timeout.callbacks.append(lambda _e, tag=tag: fired.append(tag))
    sim.run(until=horizon)
    assert sim.now == horizon
    for tag, delay in enumerate(delays):
        if delay <= horizon:
            assert tag in fired
    before_horizon = list(fired)
    sim.run()
    expected = [
        tag
        for tag, _delay in sorted(enumerate(delays), key=lambda p: (p[1], p[0]))
    ]
    assert fired == expected
    assert fired[: len(before_horizon)] == before_horizon


def test_peek_over_sparse_horizon():
    """peek() reports each next entry across long empty stretches."""
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(5.0)
    sim.timeout(1e4)
    assert sim.peek() == 5.0
    sim.step()
    assert sim.now == 5.0
    assert sim.peek() == 1e4
    sim.run()
    assert sim.now == 1e4
    assert sim.peek() == float("inf")


class TestStoreInterleaving:
    """drain()/try_get() must admit blocked putters in FIFO order."""

    def test_drain_admits_blocked_putters_fifo(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        store.put("a")
        store.put("b")
        blocked = [store.put(f"p{i}") for i in range(4)]
        sim.run()
        assert [event.processed for event in blocked] == [False] * 4

        assert store.drain() == ["a", "b"]
        # Capacity freed: exactly the two longest-waiting putters admitted.
        assert store.items == ("p0", "p1")
        sim.run()
        assert [event.processed for event in blocked] == [True, True, False, False]

        assert store.drain() == ["p0", "p1"]
        sim.run()
        assert all(event.processed for event in blocked)
        assert store.drain() == ["p2", "p3"]

    def test_try_get_admits_blocked_putter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        store.put("a")
        waiting = store.put("b")
        sim.run()
        assert not waiting.processed

        ok, item = store.try_get()
        assert (ok, item) == (True, "a")
        assert store.items == ("b",)
        sim.run()
        assert waiting.processed

    def test_getter_drain_interleaving(self):
        sim = Simulator()
        store = Store(sim)
        got = store.get()  # waits: store empty
        store.put("direct")  # handed straight to the getter, never buffered
        store.put("buffered")
        sim.run()
        assert got.value == "direct"
        assert store.drain() == ["buffered"]
