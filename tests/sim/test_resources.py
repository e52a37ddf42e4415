"""Tests for Store, and for the test-only Resource the process-form
reference in ``tests/core/burst_reference.py`` queues on."""

import pytest

from repro.sim import Simulator, Store
from tests.core.burst_reference import Resource


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    r1, r2, r3 = resource.request(), resource.request(), resource.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert resource.count == 2
    assert resource.queue_length == 1


def test_resource_release_wakes_fifo():
    sim = Simulator()
    resource = Resource(sim)
    order = []

    def user(sim, resource, tag, hold):
        with resource.request() as req:
            yield req
            order.append(("got", tag, sim.now))
            yield sim.timeout(hold)

    sim.process(user(sim, resource, "a", 2.0))
    sim.process(user(sim, resource, "b", 1.0))
    sim.process(user(sim, resource, "c", 1.0))
    sim.run()
    assert order == [("got", "a", 0.0), ("got", "b", 2.0), ("got", "c", 3.0)]


def test_resource_cancel_queued_request():
    sim = Simulator()
    resource = Resource(sim)
    held = resource.request()
    queued = resource.request()
    resource.release(queued)  # cancel while still queued
    assert resource.queue_length == 0
    resource.release(held)
    assert resource.count == 0


def test_resource_capacity_validation():
    with pytest.raises(ValueError):
        Resource(Simulator(), capacity=0)


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((sim.now, item))

    def producer(sim, store):
        yield sim.timeout(2.0)
        yield store.put("pkt")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert got == [(2.0, "pkt")]


def test_store_is_fifo():
    sim = Simulator()
    store = Store(sim)
    for item in ("a", "b", "c"):
        store.put(item)
    got = []

    def consumer(sim, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(consumer(sim, store))
    sim.run()
    assert got == ["a", "b", "c"]


def test_store_capacity_blocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    trace = []

    def producer(sim, store):
        yield store.put(1)
        trace.append(("put1", sim.now))
        yield store.put(2)
        trace.append(("put2", sim.now))

    def consumer(sim, store):
        yield sim.timeout(5.0)
        item = yield store.get()
        trace.append(("got", item, sim.now))

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert trace == [("put1", 0.0), ("got", 1, 5.0), ("put2", 5.0)]


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    ok, item = store.try_get()
    assert not ok and item is None
    store.put("x")
    ok, item = store.try_get()
    assert ok and item == "x"


def test_store_drain_returns_everything():
    sim = Simulator()
    store = Store(sim)
    for i in range(4):
        store.put(i)
    assert store.drain() == [0, 1, 2, 3]
    assert len(store) == 0


def test_store_drain_unblocks_putters():
    sim = Simulator()
    store = Store(sim, capacity=2)
    trace = []

    def producer(sim, store):
        for i in range(4):
            yield store.put(i)
            trace.append(("put", i, sim.now))

    def drainer(sim, store):
        yield sim.timeout(1.0)
        trace.append(("drained", store.drain(), sim.now))

    sim.process(producer(sim, store))
    sim.process(drainer(sim, store))
    sim.run()
    assert ("drained", [0, 1], 1.0) in trace
    assert ("put", 3, 1.0) in trace


def test_store_getter_waits_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store, tag):
        item = yield store.get()
        got.append((tag, item))

    sim.process(consumer(sim, store, "first"))
    sim.process(consumer(sim, store, "second"))

    def producer(sim, store):
        yield sim.timeout(1.0)
        yield store.put("x")
        yield store.put("y")

    sim.process(producer(sim, store))
    sim.run()
    assert got == [("first", "x"), ("second", "y")]
