"""Tests for the radio power-state machine and its energy accounting."""

import pickle

import pytest

from repro.phy import PowerState, Radio, RadioPowerModel, Transition
from repro.sim import Simulator


def two_state_model(**kwargs):
    return RadioPowerModel(
        name="toy",
        states=[
            PowerState("on", power_w=1.0, can_communicate=True),
            PowerState("sleep", power_w=0.1),
        ],
        transitions=[
            Transition("sleep", "on", latency_s=0.5, energy_j=1.0),
            Transition("on", "sleep", latency_s=0.0, energy_j=0.25),
        ],
        initial_state="on",
        **kwargs,
    )


class TestRadioPowerModel:
    def test_duplicate_state_rejected(self):
        with pytest.raises(ValueError):
            RadioPowerModel("m", [PowerState("a", 1.0), PowerState("a", 2.0)])

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            RadioPowerModel("m", [])

    def test_unknown_state_in_transition_rejected(self):
        with pytest.raises(KeyError):
            RadioPowerModel(
                "m", [PowerState("a", 1.0)], [Transition("a", "ghost")]
            )

    def test_unlisted_transition_defaults_to_free(self):
        model = RadioPowerModel("m", [PowerState("a", 1.0), PowerState("b", 2.0)])
        transition = model.transition("a", "b")
        assert transition.latency_s == 0.0
        assert transition.energy_j == 0.0

    def test_transition_is_a_table_lookup(self):
        model = two_state_model()
        assert model.transition("on", "sleep").energy_j == 0.25
        # Unlisted pairs, the diagonal included, are built once at init.
        assert model.transition("on", "on") is model.transition("on", "on")
        assert model.transition("on", "on") == Transition("on", "on")
        for source, target in (("ghost", "on"), ("on", "ghost")):
            with pytest.raises(KeyError, match="unknown state 'ghost'"):
                model.transition(source, target)

    def test_power_lookup(self):
        model = two_state_model()
        assert model.power("on") == 1.0
        assert model.power("sleep") == 0.1
        with pytest.raises(KeyError):
            model.power("nope")

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PowerState("x", power_w=-1.0)

    def test_negative_transition_cost_rejected(self):
        with pytest.raises(ValueError):
            Transition("a", "b", latency_s=-1.0)
        with pytest.raises(ValueError):
            Transition("a", "b", energy_j=-1.0)


class TestReadOnlyModel:
    """Profile factories share one model per process, so it must not change."""

    def test_states_and_transition_table_reject_item_assignment(self):
        model = two_state_model()
        with pytest.raises(TypeError):
            model.states["on"] = PowerState("on", power_w=9.0)
        with pytest.raises(TypeError):
            model.transitions[("on", "sleep")] = Transition("on", "sleep")
        assert model.power("on") == 1.0
        assert model.transition("on", "sleep").energy_j == 0.25

    def test_transition_table_lists_every_pair(self):
        model = two_state_model()
        assert len(model.transitions) == 4
        assert model.transitions[("sleep", "on")] is model.transition("sleep", "on")

    def test_rebinding_or_deleting_an_attribute_raises(self):
        model = two_state_model()
        with pytest.raises(AttributeError):
            model.initial_state = "sleep"
        with pytest.raises(AttributeError):
            model.states = {}
        with pytest.raises(AttributeError):
            del model.name
        assert model.initial_state == "on"

    def test_pickle_round_trip_gives_an_equal_working_model(self):
        model = two_state_model()
        copy = pickle.loads(pickle.dumps(model))
        assert copy is not model
        assert (copy.name, copy.initial_state) == (model.name, model.initial_state)
        assert dict(copy.states) == dict(model.states)
        assert dict(copy.transitions) == dict(model.transitions)
        with pytest.raises(AttributeError):
            copy.initial_state = "sleep"

        sim = Simulator()
        radio = Radio(sim, copy)

        def driver(sim, radio):
            yield sim.timeout(4.0)
            yield radio.transition_to("sleep")

        sim.process(driver(sim, radio))
        sim.run(until=10.0)
        assert radio.energy_j() == pytest.approx(4.0 + 0.25 + 0.6)


class TestRadio:
    def test_initial_state_and_power(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())
        assert radio.state == "on"
        assert radio.current_power_w() == 1.0
        assert radio.can_communicate

    def test_energy_of_constant_state(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())
        sim.run(until=10.0)
        assert radio.energy_j() == pytest.approx(10.0)
        assert radio.average_power_w() == pytest.approx(1.0)

    def test_instant_transition_adds_impulse_energy(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())

        def driver(sim, radio):
            yield sim.timeout(4.0)
            yield radio.transition_to("sleep")

        sim.process(driver(sim, radio))
        sim.run(until=10.0)
        # 4 s at 1 W + 0.25 J impulse + 6 s at 0.1 W
        assert radio.energy_j() == pytest.approx(4.0 + 0.25 + 0.6)
        assert radio.state == "sleep"
        assert not radio.can_communicate

    def test_latent_transition_draws_average_power(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())

        def driver(sim, radio):
            yield radio.transition_to("sleep")  # instant, 0.25 J
            yield sim.timeout(2.0)
            yield radio.transition_to("on")  # 0.5 s, 1 J

        sim.process(driver(sim, radio))
        sim.run(until=10.0)
        # 0.25 J impulse + 2 s * 0.1 W + 1 J transition + 7.5 s * 1 W
        assert radio.energy_j() == pytest.approx(0.25 + 0.2 + 1.0 + 7.5)

    def test_transition_latency_blocks_communication(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())
        observations = []

        def driver(sim, radio):
            yield radio.transition_to("sleep")
            transition = radio.transition_to("on")
            yield sim.timeout(0.25)  # halfway through the 0.5 s wake
            observations.append((radio.in_transition, radio.can_communicate))
            yield transition
            observations.append((radio.in_transition, radio.can_communicate))

        sim.process(driver(sim, radio))
        sim.run()
        assert observations == [(True, False), (False, True)]

    def test_transition_to_same_state_is_free(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())

        def driver(sim, radio):
            yield radio.transition_to("on")

        sim.process(driver(sim, radio))
        sim.run(until=5.0)
        assert radio.energy_j() == pytest.approx(5.0)
        assert radio.transition_count == 0

    def test_concurrent_transitions_rejected(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())

        def driver(sim, radio):
            yield radio.transition_to("sleep")
            radio.transition_to("on")  # takes 0.5 s; do not wait
            radio.transition_to("sleep")  # still mid-wake: must blow up
            yield sim.timeout(1.0)

        sim.process(driver(sim, radio))
        with pytest.raises(RuntimeError, match="already transitioning"):
            sim.run()

    def test_time_in_state_excludes_transitions(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())

        def driver(sim, radio):
            yield sim.timeout(3.0)
            yield radio.transition_to("sleep")  # instant
            yield sim.timeout(2.0)
            yield radio.transition_to("on")  # 0.5 s
            yield sim.timeout(1.0)

        sim.process(driver(sim, radio))
        sim.run()
        assert radio.time_in_state("on") == pytest.approx(4.0)
        assert radio.time_in_state("sleep") == pytest.approx(2.0)

    def test_transition_count_and_energy(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())

        def driver(sim, radio):
            for _ in range(3):
                yield radio.transition_to("sleep")
                yield radio.transition_to("on")

        sim.process(driver(sim, radio))
        sim.run()
        assert radio.transition_count == 6
        assert radio.transition_energy_j == pytest.approx(3 * (0.25 + 1.0))

    def test_state_series_records_trajectory(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())

        def driver(sim, radio):
            yield sim.timeout(1.0)
            yield radio.transition_to("sleep")

        sim.process(driver(sim, radio))
        sim.run()
        assert list(radio.state_series) == [(0.0, "on"), (1.0, "sleep")]

    def test_energy_conservation_power_trace_vs_components(self):
        """Integral of the power trace equals state energy + transition energy."""
        sim = Simulator()
        model = two_state_model()
        radio = Radio(sim, model)

        def driver(sim, radio):
            yield sim.timeout(1.5)
            yield radio.transition_to("sleep")
            yield sim.timeout(4.0)
            yield radio.transition_to("on")
            yield sim.timeout(2.0)

        sim.process(driver(sim, radio))
        sim.run()
        state_energy = sum(
            model.power(name) * radio.time_in_state(name)
            for name in model.state_names()
        )
        total = state_energy + radio.transition_energy_j
        assert radio.energy_j() == pytest.approx(total)


class TestForceStateAndImpulseEdges:
    """Edge cases of the checkpoint/restore surface (force_state,
    add_energy_impulse) interacting with ordinary accounting."""

    def test_force_state_mid_transition_rejected(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())

        def driver(sim, radio):
            yield radio.transition_to("sleep")
            transition = radio.transition_to("on")  # 0.5 s wake
            yield sim.timeout(0.25)  # halfway through the wake
            assert radio.in_transition
            with pytest.raises(RuntimeError, match="mid-transition"):
                radio.force_state("sleep")
            yield transition

        sim.process(driver(sim, radio))
        sim.run()
        # The wake itself must have completed untouched by the failed force.
        assert radio.state == "on"
        assert not radio.in_transition

    def test_impulse_at_t0_before_any_state_accounting(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())
        radio.add_energy_impulse(0.75)
        # Nothing has dwelled yet: the impulse is the whole ledger.
        assert radio.energy_j(0.0) == pytest.approx(0.75)
        sim.run(until=2.0)
        # ... and it stays additive over the first real dwell.
        assert radio.energy_j() == pytest.approx(0.75 + 2.0)

    def test_negative_impulse_rejected(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())
        with pytest.raises(ValueError):
            radio.add_energy_impulse(-1e-9)

    def test_energy_monotone_across_force_impulse_force(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())
        samples = []

        def driver(sim, radio):
            yield sim.timeout(1.0)
            samples.append(radio.energy_j())
            radio.force_state("sleep")      # free, no impulse
            samples.append(radio.energy_j())
            yield sim.timeout(1.0)
            samples.append(radio.energy_j())
            radio.add_energy_impulse(0.5)
            samples.append(radio.energy_j())
            radio.force_state("on")         # free again
            samples.append(radio.energy_j())
            yield sim.timeout(1.0)
            samples.append(radio.energy_j())

        sim.process(driver(sim, radio))
        sim.run()
        assert samples == sorted(samples)
        # 1 s on + 1 s sleep + 0.5 J impulse + 1 s on; forces are free.
        assert radio.energy_j() == pytest.approx(1.0 + 0.1 + 0.5 + 1.0)
        assert radio.transition_energy_j == 0.0
        assert radio.transition_count == 0

    def test_force_state_same_state_is_a_noop(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())
        sim.run(until=1.0)
        radio.force_state("on")
        assert radio.dwell_histograms() == {}
        assert radio.energy_j() == pytest.approx(1.0)


class TestDwellHistograms:
    def test_buckets_capture_completed_dwells(self):
        from repro.phy.radio import DWELL_BUCKETS_S, dwell_bucket_index

        assert dwell_bucket_index(50e-6) == 0           # <100us
        assert dwell_bucket_index(5e-4) == 1            # <1ms
        assert dwell_bucket_index(5e-3) == 2            # <10ms
        assert dwell_bucket_index(5e-2) == 3            # <100ms
        assert dwell_bucket_index(1.0) == len(DWELL_BUCKETS_S)

        sim = Simulator()
        radio = Radio(sim, two_state_model())

        def driver(sim, radio):
            for dwell in (50e-6, 5e-3, 5e-2):
                yield sim.timeout(dwell)        # dwell in "on"
                yield radio.transition_to("sleep")
                yield sim.timeout(1.0)          # dwell in "sleep"
                yield radio.transition_to("on")

        sim.process(driver(sim, radio))
        sim.run()
        on = radio.dwell_histogram("on")
        assert on[0] == 1 and on[2] == 1 and on[3] == 1
        # The three 1 s sleeps land in the top bucket; wake transitions
        # (0.5 s each) must not be counted as dwells anywhere.
        assert radio.dwell_histogram("sleep") == (0, 0, 0, 0, 3)
        assert sum(on) == 3

    def test_open_dwell_not_counted_until_closed(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())
        sim.run(until=5.0)
        assert radio.dwell_histogram("on") == (0, 0, 0, 0, 0)
        radio.force_state("sleep")  # closes the 5 s "on" dwell
        assert radio.dwell_histogram("on") == (0, 0, 0, 0, 1)

    def test_unknown_state_rejected(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())
        with pytest.raises(KeyError):
            radio.dwell_histogram("ghost")


class TestTransitionEventContract:
    """transition_to does its work at the call and returns one event."""

    def test_instant_and_noop_transitions_schedule_nothing(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())
        seen = []

        def controller(sim, radio):
            yield sim.timeout(1.0)
            before = sim.events_scheduled
            done = radio.transition_to("sleep")  # zero latency
            assert done.processed and radio.state == "sleep"
            yield done
            yield radio.transition_to("sleep")  # no-op
            seen.append((sim.now, sim.events_scheduled - before))

        sim.process(controller(sim, radio))
        sim.run()
        assert seen == [(1.0, 0)]
        assert radio.transition_count == 1

    def test_latent_transition_is_one_event_settled_before_waiters(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())
        seen = []

        def waiter(sim, transition):
            yield transition
            seen.append(("waiter", radio.state, radio.in_transition))

        def controller(sim, radio):
            yield radio.transition_to("sleep")
            before = sim.events_scheduled
            transition = radio.transition_to("on")  # 0.5 s wake
            assert sim.events_scheduled == before + 1
            assert radio.in_transition
            sim.process(waiter(sim, transition))
            yield transition
            seen.append(("controller", radio.state, radio.in_transition))
            assert list(radio.state_series)[-1] == (0.5, "on")
            assert radio.time_in_state("on") == 0.0

        sim.process(controller(sim, radio))
        sim.run()
        assert seen == [("controller", "on", False), ("waiter", "on", False)]
        assert sim.now == 0.5

    def test_errors_raise_at_the_call(self):
        sim = Simulator()
        radio = Radio(sim, two_state_model())
        with pytest.raises(KeyError, match="ghost"):
            radio.transition_to("ghost")
        radio.transition_to("sleep")
        radio.transition_to("on")  # 0.5 s wake, not waited for
        with pytest.raises(RuntimeError, match="already transitioning"):
            radio.transition_to("sleep")
        sim.run()
        assert radio.state == "on"
