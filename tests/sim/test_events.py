"""Tests for Event, FirstOf and AllOf."""

import pytest

from repro.sim import FirstOf, Simulator


def test_event_starts_pending():
    sim = Simulator()
    event = sim.event()
    assert not event.triggered
    assert not event.processed


def test_value_unavailable_while_pending():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(AttributeError):
        _ = event.value


def test_succeed_sets_value_and_triggers():
    sim = Simulator()
    event = sim.event()
    event.succeed("hello")
    assert event.triggered
    assert event.ok
    assert event.value == "hello"


def test_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()
    with pytest.raises(RuntimeError):
        event.fail(ValueError("x"))


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_succeed_with_delay_fires_later():
    sim = Simulator()
    seen = []

    def proc(sim, event):
        value = yield event
        seen.append((sim.now, value))

    event = sim.event()
    sim.process(proc(sim, event))
    event.succeed("late", delay=4.0)
    sim.run()
    assert seen == [(4.0, "late")]


def test_waiting_on_failed_event_raises_in_process():
    sim = Simulator()
    seen = []

    def proc(sim, event):
        try:
            yield event
        except RuntimeError as exc:
            seen.append(str(exc))

    event = sim.event()
    sim.process(proc(sim, event))
    event.fail(RuntimeError("link down"))
    sim.run()
    assert seen == ["link down"]


def test_first_of_fires_on_first():
    sim = Simulator()
    seen = []

    def proc(sim):
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(5.0, value="slow")
        winner = yield FirstOf(sim, slow, fast)
        seen.append((sim.now, winner is fast, winner.value))

    sim.process(proc(sim))
    sim.run()
    assert seen == [(1.0, True, "fast")]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    seen = []

    def proc(sim):
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(3.0, value="b")
        result = yield sim.all_of([a, b])
        seen.append((sim.now, sorted(result.values())))

    sim.process(proc(sim))
    sim.run()
    assert seen == [(3.0, ["a", "b"])]


def test_empty_condition_fires_immediately():
    sim = Simulator()
    seen = []

    def proc(sim):
        result = yield sim.all_of([])
        seen.append((sim.now, result))

    sim.process(proc(sim))
    sim.run()
    assert seen == [(0.0, {})]


def test_condition_over_already_processed_event():
    sim = Simulator()
    seen = []

    def proc(sim):
        done = sim.timeout(1.0, value="x")
        yield sim.timeout(2.0)  # let `done` be processed first
        for race in (FirstOf(sim, done, sim.timeout(10.0)),
                     FirstOf(sim, sim.timeout(10.0), done)):
            winner = yield race
            seen.append((sim.now, winner.value))

    sim.process(proc(sim))
    sim.run(until=5.0)
    assert seen == [(2.0, "x"), (2.0, "x")]


def test_first_of_decides_for_the_first_processed_side():
    sim = Simulator()
    a, b = sim.timeout(0.0, value="a"), sim.timeout(0.0, value="b")
    sim.run()
    race = FirstOf(sim, a, b)
    assert race.triggered and race.value is a
    assert FirstOf(sim, b, a).value is b


def test_first_of_failure_propagates():
    sim = Simulator()
    seen = []

    def waiter(sim, event):
        try:
            yield FirstOf(sim, sim.timeout(10.0), event)
        except ValueError as exc:
            seen.append((sim.now, str(exc)))

    event = sim.event()
    sim.process(waiter(sim, event))
    event.fail(ValueError("bad"), delay=1.0)
    sim.run()
    assert seen == [(1.0, "bad")]


def test_condition_failure_propagates():
    sim = Simulator()
    seen = []

    def failer(sim, event):
        yield sim.timeout(1.0)
        event.fail(ValueError("bad"))

    def waiter(sim, event):
        try:
            yield sim.all_of([event, sim.timeout(10.0)])
        except ValueError as exc:
            seen.append(str(exc))

    event = sim.event()
    sim.process(failer(sim, event))
    sim.process(waiter(sim, event))
    sim.run()
    assert seen == ["bad"]


def test_condition_rejects_foreign_events():
    sim_a, sim_b = Simulator(), Simulator()
    for mixed in ((sim_a.event(), sim_b.event()), (sim_b.event(), sim_a.event())):
        with pytest.raises(ValueError):
            FirstOf(sim_a, *mixed)
    with pytest.raises(ValueError):
        sim_a.all_of([sim_b.event()])
    assert sim_a.events_scheduled == 0


def test_condition_detaches_from_losing_sub_events():
    """A long-lived event raced against many timeouts must not accumulate
    dead callbacks from conditions that already fired (soak regression)."""
    sim = Simulator()
    shutdown = sim.event()

    def racer(sim):
        for _ in range(50):
            yield FirstOf(sim, sim.timeout(0.001), shutdown)

    sim.process(racer(sim))
    sim.run(until=1.0)
    assert shutdown.callbacks == []


def test_all_of_detaches_after_failure():
    sim = Simulator()
    lives_on = sim.event()
    doomed = sim.event()

    def waiter(sim):
        try:
            yield sim.all_of([doomed, lives_on])
        except RuntimeError:
            pass

    sim.process(waiter(sim))
    doomed.fail(RuntimeError("boom"))
    sim.run(until=1.0)
    assert lives_on.callbacks == []
