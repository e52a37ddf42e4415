"""``FirstOf`` against the N-way ``AnyOf`` reference, in twin simulators.

Each generated world runs a few racer processes.  Every racer races
two sides, a few rounds in a row, and logs each resume: when, which
round, and the winner (or the failure it got).  The sides are timers
that may expire in the same instant, shared plain events succeeded or
failed by timers of that same instant, events that are already
processed when the race starts, the same event on both sides, and
events that never fire.

The world runs once with ``FirstOf(sim, a, b)`` and once with the
reference ``AnyOf(sim, (a, b))``.  Both runs must log the same resumes
in the same order at the same times, with the same winners, schedule
the same number of events, and leave no callback of a decided race on
either side.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import FirstOf, Simulator
from tests.sim.any_of_reference import AnyOf

INSTANTS = (0.0, 1.0, 2.0, 3.0)

sides = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(INSTANTS)),
    st.tuples(st.just("timeout_at"), st.sampled_from(INSTANTS)),
    st.tuples(st.just("early"), st.sampled_from(INSTANTS)),
    st.tuples(st.just("shared"), st.integers(0, 2)),
    st.tuples(st.just("never")),
)

racers = st.fixed_dictionaries(
    {
        "start": st.sampled_from(INSTANTS),
        "a": sides,
        "b": sides,
        "rounds": st.integers(1, 3),
    }
)

worlds = st.fixed_dictionaries(
    {
        "racers": st.lists(racers, min_size=1, max_size=4),
        # (instant, succeed?, by a process?) for each shared event; None
        # leaves it pending for ever.
        "shared": st.lists(
            st.one_of(
                st.none(),
                st.tuples(st.sampled_from(INSTANTS), st.booleans(), st.booleans()),
            ),
            min_size=3,
            max_size=3,
        ),
        # Bystander timers, armed first, that log the instants they fire.
        "bystanders": st.lists(st.sampled_from(INSTANTS), max_size=3),
    }
)


def _first_of(sim, a, b):
    return FirstOf(sim, a, b)


def _any_of(sim, a, b):
    return AnyOf(sim, (a, b))


def _winner(race, value):
    """The winning side's event, however the race reports it."""
    return value if type(race) is FirstOf else next(iter(value))


def _run(race_of, world):
    sim = Simulator()
    log = []
    tags = {}
    races = []
    for when in world["bystanders"]:
        sim.timeout(when).callbacks.append(
            lambda _e, when=when: log.append((sim.now, "bystander", when))
        )
    shared = [sim.event() for _ in world["shared"]]
    for index, (event, plan) in enumerate(zip(shared, world["shared"])):
        tags[event] = f"shared{index}"
        if plan is None:
            continue
        when, ok, by_process = plan

        def trigger(event=event, ok=ok, index=index):
            if ok:
                event.succeed(index)
            else:
                event.fail(RuntimeError(f"shared{index}"))

        if by_process:
            def triggerer(sim, when=when, trigger=trigger):
                yield sim.timeout(when)
                trigger()

            sim.process(triggerer(sim))
        else:
            sim.timeout(when).callbacks.append(lambda _e, trigger=trigger: trigger())
    early = {}
    for spec in world["racers"]:
        for side in (spec["a"], spec["b"]):
            if side[0] == "early" and side[1] not in early:
                early[side[1]] = sim.timeout(side[1], value=f"early{side[1]}")
                tags[early[side[1]]] = f"early{side[1]}"

    def make_side(side, racer, round_, name):
        kind = side[0]
        if kind == "shared":
            return shared[side[1]]
        if kind == "early":
            return early[side[1]]
        if kind == "never":
            event = sim.event()
        elif kind == "timeout":
            event = sim.timeout(side[1])
        else:
            event = sim.timeout_at(max(side[1], sim.now))
        tags[event] = f"{kind}:{racer}.{round_}.{name}"
        return event

    def racer(sim, index, spec):
        yield sim.timeout(spec["start"])
        for round_ in range(spec["rounds"]):
            a = make_side(spec["a"], index, round_, "a")
            b = make_side(spec["b"], index, round_, "b")
            race = race_of(sim, a, b)
            races.append((race, a, b))
            try:
                value = yield race
            except RuntimeError as exc:
                log.append((sim.now, index, round_, "fail", str(exc)))
            else:
                log.append((sim.now, index, round_, "won", tags[_winner(race, value)]))

    for index, spec in enumerate(world["racers"]):
        sim.process(racer(sim, index, spec))
    try:
        sim.run()
        error = None
    except RuntimeError as exc:  # a failure nobody waited for
        error = (sim.now, str(exc))
    stray = [
        index
        for index, (race, a, b) in enumerate(races)
        if race.triggered
        for side in (a, b)
        for callback in side.callbacks
        if getattr(callback, "__self__", None) is race
    ]
    return {
        "log": log,
        "error": error,
        "now": sim.now,
        "events_scheduled": sim.events_scheduled,
        "stray_callbacks": stray,
    }


@given(worlds)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_first_of_matches_the_any_of_reference(world):
    observed = _run(_first_of, world)
    assert observed == _run(_any_of, world)
    assert observed["stray_callbacks"] == []


def test_same_instant_timers_resume_in_the_reference_order():
    """Two racers whose timers expire in the instant their shared event
    is succeeded: both timers win, and the shared event, already
    processed when racer 0 races it again, wins that race at once."""
    world = {
        "racers": [
            {"start": 0.0, "a": ("timeout", 1.0), "b": ("shared", 0),
             "rounds": 2},
            {"start": 0.0, "a": ("shared", 0), "b": ("timeout_at", 1.0),
             "rounds": 1},
        ],
        "shared": [(1.0, True, False), None, None],
        "bystanders": [1.0],
    }
    observed = _run(_first_of, world)
    assert observed == _run(_any_of, world)
    assert observed["log"] == [
        (1.0, "bystander", 1.0),
        (1.0, 0, 0, "won", "timeout:0.0.a"),
        (1.0, 1, 0, "won", "timeout_at:1.0.b"),
        (1.0, 0, 1, "won", "shared0"),
    ]
