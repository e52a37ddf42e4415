"""μNap: binding to one station and the nap timing math."""

import pytest

from repro.devices.profiles import unap_wlan_card
from repro.mac import Medium
from repro.mac.dcf import DcfStation
from repro.mac.powersave import MicroNapPolicy
from repro.phy import Radio
from repro.sim import Simulator


def _station(sim, policy, address="sta"):
    return DcfStation(
        sim,
        Medium(sim),
        address,
        radio=Radio(sim, unap_wlan_card(), name=f"{address}/wlan"),
        power_policy=policy,
    )


def test_bind_twice_rejected():
    sim = Simulator()
    policy = MicroNapPolicy()
    _station(sim, policy)
    with pytest.raises(RuntimeError, match="already bound"):
        policy.bind(object())


class TestMicroNapTiming:
    def test_break_even_derived_from_card_at_bind(self):
        sim = Simulator()
        policy = MicroNapPolicy()
        assert policy.min_nap_s == float("inf")  # unbound: never naps
        _station(sim, policy)
        # unap card: 50us/24uJ down, 250us/120uJ up, idle 0.83 W,
        # doze 0.13 W.  Energy break-even:
        # (24u + 120u - 0.13*300u) / (0.83 - 0.13) = 150us, dominated by
        # the 300us physical round trip.
        assert policy.min_nap_s == pytest.approx(300e-6)

    def test_requires_a_radio(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="requires a station with a radio"):
            DcfStation(
                sim, Medium(sim), "bare", power_policy=MicroNapPolicy()
            )

    def test_sleep_opportunity_budgets_the_wake_transition(self):
        sim = Simulator()
        policy = MicroNapPolicy()
        _station(sim, policy)
        assert policy.sleep_opportunity(0.0) is None  # no reservation yet
        policy._reservation_until = 2e-3
        plan = policy.sleep_opportunity(0.0)
        assert plan is not None
        doze_until, state = plan
        assert state == "doze"
        # Wake 250us early so the radio is listening at reservation end.
        assert doze_until == pytest.approx(2e-3 - 250e-6)

    def test_window_below_floor_declines(self):
        sim = Simulator()
        policy = MicroNapPolicy()
        _station(sim, policy)
        policy._reservation_until = 200e-6  # < 300us break-even
        assert policy.sleep_opportunity(0.0) is None
