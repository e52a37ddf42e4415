"""Every process resume comes from the event the process is waiting on.

A process puts its resume callback on one event at a time -- its
bootstrap, then each event it yields -- so ``Process._resume`` needs no
guard against a trigger from an event it has already left.  These tests
check that claim on real worlds: ``Process._resume`` is wrapped before
any world is built, and every call must carry either the event that
process last yielded or, before its first yield, its bootstrap.  The
worlds are every golden scenario at golden size and seeded cascades of
processes in the style of ``test_kernel_order``.
"""

import random

import pytest

from repro.core.outcome import VOLATILE_TIMING_FIELDS
from repro.exp import dumps_strict, get_scenario
from repro.sim import FirstOf, Simulator
from repro.sim.process import Process
from tests.build.test_golden_equivalence import GOLDENS


class _ResumeAudit:
    """Wraps ``Process.__init__`` and ``Process._resume`` to check the
    source of every resume."""

    def __init__(self, monkeypatch):
        #: Process -> sequence number of its bootstrap's calendar entry.
        self.bootstraps = {}
        #: Process -> the event its generator last yielded.
        self.yielded = {}
        self.resumes = 0
        init = Process.__init__
        resume = Process._resume
        audit = self

        def watched_init(process, sim, generator, name=None):
            init(process, sim, generator, name)
            audit.bootstraps[process] = sim._seq  # the bootstrap's push
            send, throw = process._send, process._throw

            def send_(value):
                audit.yielded[process] = event = send(value)
                return event

            def throw_(exc):
                audit.yielded[process] = event = throw(exc)
                return event

            process._send, process._throw = send_, throw_

        def watched_resume(process, trigger):
            audit.check(process, trigger)
            resume(process, trigger)

        monkeypatch.setattr(Process, "__init__", watched_init)
        monkeypatch.setattr(Process, "_resume", watched_resume)

    def check(self, process, trigger):
        assert process.is_alive, f"{process!r} resumed after it finished"
        if process in self.yielded:
            assert trigger is self.yielded[process], (
                f"{process!r} resumed by {trigger!r}, not by the "
                f"{self.yielded[process]!r} it waits on"
            )
        else:
            _when, seq, event = process.sim._dispatching
            assert event is trigger and seq == self.bootstraps[process], (
                f"{process!r} started by {trigger!r}, not by its bootstrap"
            )
        self.resumes += 1


@pytest.mark.parametrize("payload", GOLDENS, ids=[p["scenario"] for p in GOLDENS])
def test_golden_scenarios_resume_only_from_the_awaited_event(payload, monkeypatch):
    audit = _ResumeAudit(monkeypatch)
    fn = get_scenario(payload["scenario"])
    for seed_str, expected in payload["records"].items():
        result = fn(**payload["params"], seed=int(seed_str))
        record = {
            k: v
            for k, v in result.summary_record().items()
            if k not in VOLATILE_TIMING_FIELDS
        }
        # The audit observes the run; it must not change it.
        assert dumps_strict(record) == expected
    assert audit.resumes > 0


INSTANTS = (0.0, 0.0, 1e-3, 0.5, 1.0, 1.0, 2.5)


def _cascade(seed):
    """Seeded processes that wait on timers with exact ties, shared
    events succeeded or failed by timers, events already processed,
    races, joins and each other, and spawn more processes as they run."""
    plan = random.Random(seed)
    sim = Simulator()
    shared = [sim.event() for _ in range(4)]
    for index, event in enumerate(shared):
        event.callbacks.append(lambda _e: None)  # a failure is waited for
        if plan.random() < 0.8:
            ok = plan.random() < 0.7

            def trigger(_e, event=event, ok=ok, index=index):
                if ok:
                    event.succeed(index)
                else:
                    event.fail(RuntimeError(f"shared{index}"))

            sim.timeout(plan.choice(INSTANTS)).callbacks.append(trigger)
    early = sim.timeout(0.0)
    log = []

    def body(depth):
        for _round in range(plan.randint(1, 4)):
            kind = plan.choice(
                ["timeout", "timeout_at", "shared", "early", "race", "join", "child"]
            )
            if kind == "timeout":
                wait = sim.timeout(plan.choice(INSTANTS))
            elif kind == "timeout_at":
                wait = sim.timeout_at(sim.now + plan.choice(INSTANTS))
            elif kind == "shared":
                wait = plan.choice(shared)
            elif kind == "early":
                wait = early
            elif kind == "race":
                wait = FirstOf(sim, plan.choice(shared), sim.timeout(plan.choice(INSTANTS)))
            elif kind == "join":
                wait = sim.all_of([sim.timeout(plan.choice(INSTANTS)) for _ in range(2)])
            elif depth < 3:
                wait = sim.process(body(depth + 1))
            else:
                wait = sim.timeout(0.0)
            try:
                yield wait
            except RuntimeError as exc:
                log.append((sim.now, depth, str(exc)))
            else:
                log.append((sim.now, depth, kind))
            if depth < 3 and plan.random() < 0.3:
                sim.timeout(plan.choice(INSTANTS)).callbacks.append(
                    lambda _e, depth=depth: sim.process(body(depth + 1))
                )

    for _ in range(plan.randint(1, 6)):
        sim.process(body(0))
    sim.run()
    return log


@pytest.mark.parametrize("seed", range(40))
def test_cascades_resume_only_from_the_awaited_event(seed, monkeypatch):
    audit = _ResumeAudit(monkeypatch)
    _cascade(seed)
    # Every process was started by its bootstrap, at least.
    assert audit.resumes >= len(audit.bootstraps) > 0
