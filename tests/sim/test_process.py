"""Tests for Process semantics: liveness, results, ordering."""

from repro.sim import Simulator


def test_process_is_alive_until_generator_returns():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(2.0)

    proc = sim.process(body(sim))
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive


def test_process_name_defaults_to_generator_name():
    sim = Simulator()

    def my_station(sim):
        yield sim.timeout(1.0)

    proc = sim.process(my_station(sim))
    assert proc.name == "my_station"
    sim.run()


def test_process_can_wait_on_another_process_result():
    sim = Simulator()
    results = []

    def worker(sim):
        yield sim.timeout(3.0)
        return {"bytes": 1024}

    def boss(sim):
        outcome = yield sim.process(worker(sim))
        results.append(outcome)

    sim.process(boss(sim))
    sim.run()
    assert results == [{"bytes": 1024}]


def test_immediate_return_process():
    sim = Simulator()
    results = []

    def nop(sim):
        return "done"
        yield  # pragma: no cover - makes this a generator

    def waiter(sim):
        value = yield sim.process(nop(sim))
        results.append((sim.now, value))

    sim.process(waiter(sim))
    sim.run()
    assert results == [(0.0, "done")]


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    trace = []

    def ticker(sim, tag, period):
        while sim.now < 4.0:
            yield sim.timeout(period)
            trace.append((sim.now, tag))

    sim.process(ticker(sim, "fast", 1.0))
    sim.process(ticker(sim, "slow", 2.0))
    sim.run(until=4.5)
    # At shared instants the event scheduled earliest fires first: the slow
    # ticker armed its t=2 timeout at t=0, before the fast ticker re-armed
    # at t=1, so "slow" precedes "fast" at t=2 and t=4.
    assert trace == [
        (1.0, "fast"),
        (2.0, "slow"),
        (2.0, "fast"),
        (3.0, "fast"),
        (4.0, "slow"),
        (4.0, "fast"),
    ]
