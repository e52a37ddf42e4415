"""Sanity checks on the calibrated device profiles."""

import pickle

from repro.core.outcome import VOLATILE_TIMING_FIELDS
from repro.devices import bluetooth_module, gprs_modem, ipaq_3970, wlan_cf_card
from repro.devices.profiles import (
    BLUETOOTH_ACL_RATE_BPS,
    GPRS_RATE_BPS,
    WLAN_RATES_BPS,
    unap_wlan_card,
)
from repro.exp.scenarios import get_scenario
from repro.phy import Radio
from repro.sim import Simulator


def test_wlan_state_power_ordering():
    """tx > rx > idle > doze > off, as every published measurement shows."""
    model = wlan_cf_card()
    assert (
        model.power("tx")
        > model.power("rx")
        > model.power("idle")
        > model.power("doze")
        > model.power("off")
    )


def test_wlan_tx_rx_similar():
    """The survey's premise: transmit and receive power are comparable."""
    model = wlan_cf_card()
    assert model.power("tx") / model.power("rx") < 2.0


def test_wlan_idle_dominates_doze():
    """Listening costs several times doze power — why PSM matters."""
    model = wlan_cf_card()
    assert model.power("idle") / model.power("doze") > 4.0


def test_wlan_off_wakeup_is_expensive():
    """Off→idle must cost real time and energy, else naive off always wins."""
    transition = wlan_cf_card().transition("off", "idle")
    assert transition.latency_s >= 0.1
    assert transition.energy_j > 0.0


def test_bluetooth_park_is_deep():
    model = bluetooth_module()
    assert model.power("park") < 0.2 * model.power("active")
    assert model.power("off") == 0.0


def test_bluetooth_power_ordering():
    model = bluetooth_module()
    assert (
        model.power("active")
        > model.power("connected")
        > model.power("sniff")
        > model.power("hold")
        > model.power("park")
        > model.power("off")
    )


def test_bluetooth_much_lower_power_than_wlan():
    """The reason the Hotspot starts clients on Bluetooth."""
    assert bluetooth_module().power("active") < 0.2 * wlan_cf_card().power("rx")


def test_wlan_much_faster_than_bluetooth():
    """...and the reason it switches to WLAN when quality allows."""
    assert WLAN_RATES_BPS["11M"] > 10 * BLUETOOTH_ACL_RATE_BPS


def test_gprs_is_slow_but_frugal_standby():
    model = gprs_modem()
    assert GPRS_RATE_BPS < BLUETOOTH_ACL_RATE_BPS
    assert model.power("standby") < 0.1
    assert model.transition("off", "ready").latency_s > 1.0


def test_ipaq_platform_ordering():
    profile = ipaq_3970()
    assert profile.busy_power_w > profile.idle_power_w > profile.sleep_power_w


def test_all_radio_models_instantiate():
    sim = Simulator()
    for factory in (wlan_cf_card, bluetooth_module, gprs_modem):
        radio = Radio(sim, factory())
        assert radio.state in factory().state_names()


def test_communication_flags():
    wlan = wlan_cf_card()
    assert wlan.states["tx"].can_communicate
    assert wlan.states["idle"].can_communicate
    assert not wlan.states["doze"].can_communicate
    assert not wlan.states["off"].can_communicate


FACTORIES = (wlan_cf_card, unap_wlan_card, bluetooth_module, gprs_modem, ipaq_3970)


def clear_factory_caches():
    for factory in FACTORIES:
        factory.cache_clear()


def test_each_factory_returns_one_shared_instance():
    for factory in FACTORIES:
        assert factory() is factory()


def test_shared_models_survive_a_pickle_round_trip():
    for factory in (wlan_cf_card, unap_wlan_card, bluetooth_module, gprs_modem):
        model = factory()
        copy = pickle.loads(pickle.dumps(model))
        assert copy is not model
        assert (copy.name, copy.initial_state) == (model.name, model.initial_state)
        assert dict(copy.states) == dict(model.states)
        assert dict(copy.transitions) == dict(model.transitions)
    assert pickle.loads(pickle.dumps(ipaq_3970())) == ipaq_3970()


def hotspot_record(**params):
    record = get_scenario("hotspot")(duration_s=3.0, n_clients=2, **params)
    record = record.summary_record()
    for field in VOLATILE_TIMING_FIELDS:
        record.pop(field, None)
    return record


def test_back_to_back_worlds_match_each_run_alone():
    """Worlds sharing the cached models behave as in a fresh process."""
    first = {"seed": 3, "scheduler": "edf"}
    second = {"seed": 4, "scheduler": "round-robin", "burst_bytes": 20_000}
    clear_factory_caches()
    alone_first = hotspot_record(**first)
    clear_factory_caches()
    alone_second = hotspot_record(**second)
    clear_factory_caches()
    assert hotspot_record(**first) == alone_first
    assert hotspot_record(**second) == alone_second
    assert hotspot_record(**first) == alone_first
