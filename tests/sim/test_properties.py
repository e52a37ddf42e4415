"""Property-based tests (hypothesis) for kernel invariants."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RunningStat, Simulator, TimeWeightedStat

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=50,
)


@given(delays)
def test_events_fire_in_nondecreasing_time_order(delay_list):
    """No matter the scheduling order, processing order is chronological."""
    sim = Simulator()
    fired = []

    def make_recorder(tag):
        def record(event):
            fired.append((sim.now, tag))

        return record

    for tag, delay in enumerate(delay_list):
        event = sim.event()
        event.callbacks.append(make_recorder(tag))
        event.succeed(delay=delay)
    sim.run()
    times = [time for time, _tag in fired]
    assert times == sorted(times)
    assert len(fired) == len(delay_list)


@given(delays)
def test_equal_time_events_fire_in_schedule_order(delay_list):
    """Ties break by scheduling order (determinism invariant)."""
    sim = Simulator()
    fired = []

    def make_recorder(tag):
        return lambda event: fired.append(tag)

    quantised = [round(d) for d in delay_list]  # force collisions
    for tag, delay in enumerate(quantised):
        event = sim.event()
        event.callbacks.append(make_recorder(tag))
        event.succeed(delay=delay)
    sim.run()
    # Stable sort by quantised delay reproduces exactly the firing order.
    expected = [tag for _d, tag in sorted((d, t) for t, d in enumerate(quantised))]
    assert fired == expected


segments = st.lists(
    st.tuples(
        st.floats(min_value=1e-6, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


@given(segments)
def test_time_weighted_mean_matches_bruteforce(segment_list):
    """TimeWeightedStat agrees with a direct sum over segments."""
    stat = TimeWeightedStat(initial_value=segment_list[0][1])
    time = 0.0
    brute_integral = 0.0
    current = segment_list[0][1]
    for duration, next_value in segment_list:
        brute_integral += current * duration
        time += duration
        stat.record(time, next_value)
        current = next_value
    assert stat.integral(now=time) == stat.integral()
    assert stat.integral() == st_approx(brute_integral)
    assert stat.mean(now=time) == st_approx(brute_integral / time)


def st_approx(value, rel=1e-9, abs_tol=1e-9):
    import pytest

    return pytest.approx(value, rel=rel, abs=abs_tol)


@given(segments)
def test_duration_by_value_sums_to_elapsed(segment_list):
    stat = TimeWeightedStat(initial_value=0.0)
    time = 0.0
    for duration, value in segment_list:
        time += duration
        stat.record(time, value)
    durations = stat.duration_by_value(now=time + 1.0)
    assert sum(durations.values()) == st_approx(time + 1.0, rel=1e-6, abs_tol=1e-6)


@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=2, max_size=200
    )
)
def test_running_stat_matches_numpy_style_formulae(values):
    stat = RunningStat()
    stat.extend(values)
    mean = sum(values) / len(values)
    assert stat.mean == st_approx(mean, rel=1e-6, abs_tol=1e-6)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    assert stat.variance == st_approx(var, rel=1e-6, abs_tol=1e-5)
    assert stat.min == min(values)
    assert stat.max == max(values)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**31), st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), min_size=1, max_size=20))
def test_simulation_is_deterministic_for_fixed_seed(seed, delay_list):
    """Two identical runs produce identical traces."""

    def run_once():
        sim = Simulator()
        trace = []

        def proc(sim, delay_list):
            for delay in delay_list:
                yield sim.timeout(delay)
                trace.append(sim.now)

        sim.process(proc(sim, delay_list))
        sim.run()
        return trace

    assert run_once() == run_once()
