"""Tests for the simulator run loop and event scheduling."""

import pytest

from repro.sim import SimulationError, Simulator


def test_initial_time_defaults_to_zero():
    assert Simulator().now == 0.0


def test_initial_time_can_be_set():
    assert Simulator(start_time=12.5).now == 12.5


def test_run_until_advances_time_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_past_raises():
    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_timeout_fires_at_exact_time():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(2.5)
        seen.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert seen == [2.5]


def test_timeout_value_is_delivered():
    sim = Simulator()
    seen = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="payload")
        seen.append(value)

    sim.process(proc(sim))
    sim.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


NAN, INF = float("nan"), float("inf")

_NON_FINITE_TRIGGERS = {
    "timeout": lambda sim, event, x: sim.timeout(x),
    "_schedule": lambda sim, event, x: sim._schedule(event, x),
    "succeed": lambda sim, event, x: event.succeed(delay=x),
    "fail": lambda sim, event, x: event.fail(RuntimeError("boom"), delay=x),
    "bulk_timeouts": lambda sim, event, x: sim.bulk_timeouts([sim.now + 1.0, x]),
    "timeout_at": lambda sim, event, x: sim.timeout_at(x),
}


@pytest.mark.parametrize(
    "entry, value, error",
    [
        *[("timeout", x, ValueError) for x in (NAN, INF, -INF)],
        *[(name, x, SimulationError) for name in ("_schedule", "succeed", "fail")
          for x in (NAN, INF, -INF)],
        ("bulk_timeouts", NAN, ValueError),
        ("bulk_timeouts", INF, ValueError),
        ("bulk_timeouts", -INF, SimulationError),  # precedes now
        ("timeout_at", NAN, ValueError),
        ("timeout_at", INF, ValueError),
        ("timeout_at", -INF, SimulationError),  # precedes now
    ],
)
def test_non_finite_delay_rejected_before_any_state_changes(entry, value, error):
    sim = Simulator()
    sim.timeout(0.5)
    sim.timeout(5.0)  # a second, later entry
    event = sim.event()
    scheduled, depth = sim.events_scheduled, sim.queue_depth
    with pytest.raises(error):
        _NON_FINITE_TRIGGERS[entry](sim, event, value)
    assert sim.events_scheduled == scheduled
    assert sim.queue_depth == depth
    assert not event.triggered
    # The kernel is still usable: the event can be triggered and every
    # queued entry dispatches.
    event.succeed("late")
    sim.run()
    assert event.processed and event.value == "late"
    assert sim.events_scheduled == scheduled + 1


def test_timeout_at_fires_at_exactly_the_given_time():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(0.3)
        # 0.3 + (0.9 - 0.3) rounds to 0.9000000000000001.
        assert sim.now + (0.9 - sim.now) != 0.9
        timer = sim.timeout_at(0.9, value="v")
        fired.append((yield timer))
        fired.append(sim.now)
        with pytest.raises(SimulationError):
            sim.timeout_at(0.5)  # before now
        yield sim.timeout_at(sim.now)  # now itself is allowed
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert fired == ["v", 0.9, 0.9]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_step_on_empty_queue_raises():
    with pytest.raises(SimulationError):
        Simulator().step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(3.0)
    sim.timeout(1.0)
    assert sim.peek() == 1.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(1.0)
        seen.append("early")
        yield sim.timeout(10.0)
        seen.append("late")

    sim.process(proc(sim))
    sim.run(until=5.0)
    assert seen == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert seen == ["early", "late"]


def test_run_without_until_drains_queue():
    sim = Simulator()

    def proc(sim):
        for _ in range(5):
            yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == 5.0


def test_unhandled_process_failure_propagates_from_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_handled_process_failure_does_not_propagate():
    sim = Simulator()
    seen = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def guard(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError as exc:
            seen.append(str(exc))

    sim.process(guard(sim))
    sim.run()
    assert seen == ["boom"]


def test_nested_processes_return_values():
    sim = Simulator()
    results = []

    def inner(sim):
        yield sim.timeout(1.0)
        return "inner-done"

    def outer(sim):
        value = yield sim.process(inner(sim))
        results.append((sim.now, value))

    sim.process(outer(sim))
    sim.run()
    assert results == [(1.0, "inner-done")]


def test_process_yielding_non_event_fails():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(TypeError, match="yield Event"):
        sim.run()
