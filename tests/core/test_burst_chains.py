"""Hotspot interface commands and bursts as callback chains vs. processes.

``tests/core/burst_reference.py`` keeps the generator forms.  Generated
worlds drive one client through both: callers that overlap their
wake/sleep/transfer commands and bursts on shared interfaces, commands
issued while another's transition is in flight, zero-latency and
latency transitions, zero-byte transfers, faults that kill or revive an
interface mid-burst, and outside radio moves that a command has to
wait out.

A chain command takes its FIFO place at the call and each step runs in
the dispatch of the event it waited on; a process did both a dispatch
or more later.  Two kinds of example are therefore skipped: those where
two callers (or a caller and a fault or an outside move) act at one
instant (a burst called at the instant of a fault is pinned by its own
test below), and those whose outcome depends on the order in which two
continuations due at one instant run (the chain run with the holder's
continuation first, instead of the next waiter, gives another result).
Every caller thinks for a while between its commands, so both are rare.

The waiters' resume order is the order in which queued commands get the
interface: each form logs every command as it lets go of the interface,
with the instant and the state it left the radio in, and the logs must
match entry for entry.  Callers must resume at the same instants with
the same values, each in its own order; callers resumed at one instant
may come back in another order, since a burst's process waited on a
process of its own and so resumed a dispatch later than a command's.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import HotspotClient, QoSContract
from repro.core.interfaces import ManagedInterface
from repro.phy import Radio
from repro.phy.radio import PowerState, RadioPowerModel, Transition
from repro.sim import Simulator
from tests.core.burst_reference import ProcessHotspotClient, ProcessManagedInterface

STATES = ("rest", "active", "sleep", "other")

latencies = st.one_of(st.just(0.0), st.floats(1e-4, 0.05))

commands = st.one_of(
    st.tuples(st.sampled_from(["wake", "sleep"]), st.integers(0, 1)),
    st.tuples(st.just("transfer"), st.integers(0, 1), st.sampled_from([0, 1, 3_000, 40_000])),
    st.tuples(st.just("burst"), st.integers(0, 1), st.integers(1, 60_000)),
    st.tuples(st.just("initialise")),
)

# (think time before the command, command)
scripts = st.lists(st.tuples(st.floats(1e-4, 0.08), commands), max_size=8)

worlds = st.fixed_dictionaries(
    {
        "latency": st.dictionaries(
            st.tuples(st.sampled_from(STATES), st.sampled_from(STATES)), latencies
        ),
        "n_interfaces": st.integers(1, 2),
        "rate_bps": st.sampled_from([2e5, 1e6, 5e6]),
        "callers": st.lists(scripts, min_size=1, max_size=3),
        # (instant, interface index, "fail" | "revive")
        "faults": st.lists(
            st.tuples(
                st.floats(0.0, 0.6), st.integers(0, 1), st.sampled_from(["fail", "revive"])
            ),
            max_size=4,
        ),
        # (instant, interface index, target state)
        "outside": st.lists(
            st.tuples(st.floats(0.0, 0.6), st.integers(0, 1), st.sampled_from(STATES)),
            max_size=3,
        ),
    }
)


class _LoggedChain(ManagedInterface):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.served = []

    def _release(self, event=None):
        self.served.append((self.sim.now, self.radio.state))
        super()._release(event)


class _HolderFirst(_LoggedChain):
    """The chain, but the holder's continuation runs before the next
    waiter takes the interface: the other order two same-instant
    continuations can take."""

    def _release(self, event=None):
        self.served.append((self.sim.now, self.radio.state))
        then = self._commands[0][1]
        then()
        self._commands.popleft()
        if self._commands:
            self._drive()


class _LoggedProcess(ProcessManagedInterface):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.served = []

    def _goto_body(self, target):
        with self._control.request() as grant:
            yield grant
            while self.radio.in_transition:
                yield self.sim.timeout(0.0005)
            if self.radio.state != target:
                yield self.radio.transition_to(target)
            self.served.append((self.sim.now, self.radio.state))


def _model(latency):
    return RadioPowerModel(
        "generated",
        [
            PowerState("rest", 0.5, can_communicate=True),
            PowerState("active", 0.9, can_communicate=True),
            PowerState("sleep", 0.01),
            PowerState("other", 0.2),
        ],
        [
            Transition(source, target, latency_s=seconds, energy_j=seconds * 2.0)
            for (source, target), seconds in latency.items()
            if source != target
        ],
        initial_state="rest",
    )


def _run(world, interface_cls, client_cls):
    sim = Simulator()
    model = _model(world["latency"])
    interfaces = {
        f"if{index}": interface_cls(
            sim,
            f"if{index}",
            Radio(sim, model, name=f"if{index}"),
            effective_rate_bps=world["rate_bps"],
            resting_state="rest",
            active_state="active",
            sleep_state="sleep",
        )
        for index in range(world["n_interfaces"])
    }
    contract = QoSContract(
        client="c", stream_rate_bps=64_000.0, client_buffer_bytes=10**9
    )
    client = client_cls(sim, "c", contract, interfaces)
    names = list(interfaces)
    resumed = []
    #: Every instant a caller, a fault or an outside radio move acts at.
    acts = []

    def caller(number, script):
        for step, (think_s, command) in enumerate(script):
            # Callers think at slightly different paces: fewer ties.
            yield sim.timeout(think_s * (1.0 + number * 1.4142e-3))
            acts.append(sim.now)
            kind = command[0]
            if kind == "initialise":
                event = client.initialise()
            else:
                name = names[command[1] % len(names)]
                interface = interfaces[name]
                if kind == "wake":
                    event = interface.wake()
                elif kind == "sleep":
                    event = interface.sleep()
                elif kind == "transfer":
                    event = interface.transfer(command[2] + number)
                else:
                    event = client.execute_burst(name, command[2] + number)
            value = yield event
            resumed.append((number, step, sim.now, value))

    def at(when, action):
        sim.timeout_at(when).callbacks.append(lambda _timer: action())

    def fault(interface, kind):
        acts.append(sim.now)
        getattr(interface, kind)()

    def outside(radio, target):
        acts.append(sim.now)
        if not radio.in_transition:
            cost = radio.model.transition(radio.state, target)
            radio.transition_to(target)
            if cost.latency_s > 0:
                acts.append(sim.now + cost.latency_s)  # where it lets go

    for number, script in enumerate(world["callers"]):
        sim.process(caller(number, script))
    # Faults and outside moves are spread a little, like the callers.
    for k, (when, index, kind) in enumerate(world["faults"]):
        interface = interfaces[names[index % len(names)]]
        at(when + (k + 1) * 1.1e-6, lambda i=interface, kind=kind: fault(i, kind))
    for k, (when, index, target) in enumerate(world["outside"]):
        radio = interfaces[names[index % len(names)]].radio
        at(when + (k + 1) * 1.3e-6, lambda r=radio, target=target: outside(r, target))
    sim.run()
    return {
        "distinct_acts": len(set(acts)) == len(acts),
        "resumed": sorted(resumed),
        "burst_log": client.burst_log,
        "bursts_received": client.bursts_received,
        "bytes_received": client.bytes_received,
        "bursts_in_flight": client.bursts_in_flight,
        "interfaces": {
            name: (
                list(interface.radio.state_series),
                interface.radio.transition_count,
                interface.radio.energy_j(),
                interface.bytes_transferred,
                interface.bursts,
                interface.served,
            )
            for name, interface in interfaces.items()
        },
        "end_s": sim.now,
    }


@given(worlds)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_burst_chains_match_their_processes(world):
    chain = _run(world, _LoggedChain, HotspotClient)
    assume(chain["distinct_acts"])
    # A release whose outcome depends on the order of two same-instant
    # continuations: the process form orders them by dispatch depth.
    assume(_run(world, _HolderFirst, HotspotClient) == chain)
    reference = _run(world, _LoggedProcess, ProcessHotspotClient)
    assert chain == reference
    assert chain["bursts_in_flight"] == 0


def test_command_finishing_at_the_call_costs_no_event():
    sim = Simulator()
    model = _model({("rest", "active"): 0.0, ("active", "rest"): 0.0})
    interface = ManagedInterface(
        sim, "if0", Radio(sim, model), effective_rate_bps=1e6,
        resting_state="rest", active_state="active", sleep_state="sleep",
    )
    before = sim.events_scheduled
    assert interface.wake().processed
    assert interface.transfer(0).processed
    assert interface.transfer(0).value == 0.0
    assert sim.events_scheduled == before
    assert interface.bursts == 2


def test_burst_schedules_only_transitions_timer_and_completion():
    """Wake (latency), transfer timer, sleep (latency), and the one event
    the caller resumes on: no bootstrap, grant or completion in between."""
    sim = Simulator()
    model = _model({("sleep", "rest"): 0.01, ("rest", "sleep"): 0.002})
    interface = ManagedInterface(
        sim, "if0", Radio(sim, model), effective_rate_bps=1e6,
        resting_state="rest", active_state="active", sleep_state="sleep",
    )
    contract = QoSContract(client="c", stream_rate_bps=64_000.0)
    client = HotspotClient(sim, "c", contract, {"if0": interface})
    client.initialise()
    sim.run()
    before = sim.events_scheduled
    done = client.execute_burst("if0", 1_000)
    assert client.bursts_in_flight == 1
    sim.run()
    assert done.value == 1_000
    assert client.bursts_in_flight == 0
    assert sim.events_scheduled - before == 4
    assert interface.is_asleep


def test_burst_on_a_dead_interface_delivers_nothing_at_once():
    sim = Simulator()
    model = _model({})
    interface = ManagedInterface(
        sim, "if0", Radio(sim, model), effective_rate_bps=1e6,
        resting_state="rest", active_state="active", sleep_state="sleep",
    )
    contract = QoSContract(client="c", stream_rate_bps=64_000.0)
    client = HotspotClient(sim, "c", contract, {"if0": interface})
    interface.fail()
    done = client.execute_burst("if0", 1_000)
    assert done.processed and done.value == 0
    assert client.bursts_in_flight == 0
    assert client.burst_log == []


@pytest.mark.parametrize("edge", ["fail", "revive"])
def test_a_burst_checks_its_interface_at_the_call_not_at_a_bootstrap(edge):
    """The one behaviour the chain changes.  The burst process checked
    ``alive`` at its bootstrap, one dispatch after the call; the chain
    checks it at the call.  A fault or revival dispatched at the call's
    instant, after the call, is seen by the process and not by the
    chain.  The property test skips such same-instant worlds."""
    outcomes = []
    for interface_cls, client_cls in (
        (ManagedInterface, HotspotClient),
        (ProcessManagedInterface, ProcessHotspotClient),
    ):
        sim = Simulator()
        interface = interface_cls(
            sim, "if0", Radio(sim, _model({})), effective_rate_bps=1e6,
            resting_state="rest", active_state="active", sleep_state="sleep",
        )
        contract = QoSContract(client="c", stream_rate_bps=64_000.0)
        client = client_cls(sim, "c", contract, {"if0": interface})
        if edge == "revive":
            interface.fail()
        calls = []
        # Both timers fire at 1.0, the burst call's first.
        call, flip = sim.timeout_at(1.0), sim.timeout_at(1.0)
        call.callbacks.append(
            lambda _t: calls.append(client.execute_burst("if0", 1_000))
        )
        flip.callbacks.append(lambda _t: getattr(interface, edge)())
        sim.run()
        outcomes.append((calls[0].value, len(client.burst_log)))
        assert client.bursts_in_flight == 0
    chain, process = outcomes
    if edge == "fail":
        assert chain == (1_000, 1) and process == (0, 0)
    else:
        assert chain == (0, 0) and process == (1_000, 1)


def test_transfer_rejects_negative_bytes_at_the_call():
    sim = Simulator()
    model = _model({})
    interface = ManagedInterface(
        sim, "if0", Radio(sim, model), effective_rate_bps=1e6,
        resting_state="rest", active_state="active", sleep_state="sleep",
    )
    with pytest.raises(ValueError):
        interface.transfer(-1)
