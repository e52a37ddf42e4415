"""Tests for the Bluetooth ACL link model."""

import pytest

from repro.core.interfaces import ManagedInterface
from repro.devices import bluetooth_module
from repro.mac import BluetoothLink
from repro.phy import Radio
from repro.sim import Simulator


def make_link(**kwargs):
    sim = Simulator()
    radio = Radio(sim, bluetooth_module())
    link = BluetoothLink(sim, radio, **kwargs)
    return sim, radio, link


def test_initial_mode_is_connected():
    sim, radio, link = make_link()
    assert link.mode == "connected"


def test_effective_rate_includes_overhead():
    sim, radio, link = make_link(efficiency=0.85)
    assert link.effective_rate_bps == pytest.approx(723_200 * 0.85)


def test_transfer_duration():
    sim, radio, link = make_link(efficiency=1.0)
    # 90400 bytes at 723.2 kb/s = 1.0 s
    assert link.transfer_duration_s(90_400) == pytest.approx(1.0)


def test_park_saves_power_versus_connected():
    def run(mode):
        sim, radio, link = make_link()

        def driver(sim):
            yield link.set_mode(mode)

        sim.process(driver(sim))
        sim.run(until=60.0)
        return radio.average_power_w()

    assert run("park") < 0.25 * run("connected")


def test_park_beacons_charge_energy():
    sim, radio, link = make_link(park_beacon_interval_s=1.0, park_listen_s=0.002)

    def driver(sim):
        yield link.set_mode("park")

    sim.process(driver(sim))
    sim.run(until=10.5)
    park_power = radio.model.power("park")
    pure_park = park_power * 10.5
    # Strictly more than pure park power because of beacon listens.
    assert radio.energy_j() > pure_park


def test_set_mode_rejects_unknown():
    sim, radio, link = make_link()
    with pytest.raises(ValueError):
        link.set_mode("turbo")


def test_validation():
    sim = Simulator()
    radio = Radio(sim, bluetooth_module())
    with pytest.raises(ValueError):
        BluetoothLink(sim, radio, rate_bps=0.0)
    with pytest.raises(ValueError):
        BluetoothLink(sim, radio, efficiency=0.0)
    with pytest.raises(ValueError):
        BluetoothLink(sim, radio, park_beacon_interval_s=0.0)
    link = BluetoothLink(sim, radio)
    with pytest.raises(ValueError):
        link.transfer_duration_s(-1)


def test_sniff_attempts_charge_energy():
    sim, radio, link = make_link(sniff_interval_s=0.5, sniff_attempt_s=0.005)

    def driver(sim):
        yield link.set_mode("sniff")

    sim.process(driver(sim))
    sim.run(until=30.0)
    sniff_floor = radio.model.power("sniff") * 30.0
    assert radio.energy_j() > sniff_floor


def test_sniff_cheaper_than_connected_but_dearer_than_park():
    def run(mode):
        sim, radio, link = make_link()

        def driver(sim):
            yield link.set_mode(mode)

        sim.process(driver(sim))
        sim.run(until=60.0)
        return radio.average_power_w()

    park, sniff, connected = run("park"), run("sniff"), run("connected")
    assert park < sniff < connected


def test_sniff_parameter_validation():
    sim = Simulator()
    radio = Radio(sim, bluetooth_module())
    with pytest.raises(ValueError):
        BluetoothLink(sim, radio, sniff_interval_s=0.0)
    with pytest.raises(ValueError):
        BluetoothLink(sim, radio, sniff_interval_s=0.01, sniff_attempt_s=0.02)


class _EagerSniffLink(BluetoothLink):
    """The sniff-attempt loop as it ran before: a process started with the
    link that wakes every interval, sniffing or not."""

    def __init__(self, sim, radio, **kwargs):
        super().__init__(sim, radio, **kwargs)
        sim.process(self._eager_loop())

    def _start_sniff_attempts(self):
        pass

    def _eager_loop(self):
        listen_power = self.radio.model.power("active")
        while True:
            yield self.sim.timeout(self.sniff_interval_s)
            if self.radio.state == "sniff" and not self.radio.in_transition:
                delta = max(listen_power - self.radio.model.power("sniff"), 0.0)
                self.radio.add_energy_impulse(delta * self.sniff_attempt_s)


@pytest.mark.parametrize("built_at", [0.0, 0.3])
@pytest.mark.parametrize(
    "modes",
    [
        [(0.2, "sniff")],
        # The first sniff lands on an attempt instant.
        [(0.5, "sniff"), (3.1, "connected"), (4.7, "sniff")],
        [(1.0, "active"), (2.25, "sniff"), (5.0, "park"), (7.5, "sniff")],
    ],
)
def test_lazy_sniff_attempts_fall_where_the_eager_loop_charged(built_at, modes):
    energies = []
    for link_cls in (BluetoothLink, _EagerSniffLink):
        sim = Simulator()
        sim.run(until=built_at)
        radio = Radio(sim, bluetooth_module())
        link = link_cls(sim, radio, sniff_interval_s=0.25, sniff_attempt_s=0.01)

        def switch(link=link, sim=sim):
            for at, mode in modes:
                yield sim.timeout(at)
                yield link.set_mode(mode)

        sim.process(switch())
        sim.run(until=20.0)
        energies.append(radio.energy_j())
    assert energies[0] == energies[1]


def _sniff_world(link_cls, drive, initial="connected"):
    """Radio energy over 10 s of a link whose radio starts in ``initial``
    and is moved by ``drive(sim, radio)``; park beacons are too rare to
    land in the window."""
    sim = Simulator()
    radio = Radio(sim, bluetooth_module())
    radio.force_state(initial)
    if link_cls is not None:
        link_cls(sim, radio, park_beacon_interval_s=100.0,
                 sniff_interval_s=0.25, sniff_attempt_s=0.01)
    sim.process(drive(sim, radio))
    sim.run(until=10.0)
    return radio.energy_j()


def _through_an_interface(sim, radio):
    # bluetooth_interface() shares its radio between the link and a
    # ManagedInterface, which moves it without set_mode.
    interface = ManagedInterface(
        sim, "bt", radio, effective_rate_bps=1e5,
        resting_state="sniff", active_state="active", sleep_state="park",
    )
    yield sim.timeout(0.3)
    yield interface.wake()
    yield interface.transfer(20_000)
    yield sim.timeout(2.0)
    yield interface.sleep()
    yield sim.timeout(1.0)
    yield interface.wake()


def _leave_sniff(sim, radio):
    yield sim.timeout(4.0)
    yield radio.transition_to("connected")


@pytest.mark.parametrize(
    "initial, drive",
    [("connected", _through_an_interface), ("sniff", _leave_sniff)],
)
def test_sniff_entered_around_set_mode_is_charged_as_by_the_eager_loop(
    initial, drive
):
    lazy, eager = (
        _sniff_world(cls, drive, initial) for cls in (BluetoothLink, _EagerSniffLink)
    )
    assert lazy == eager > _sniff_world(None, drive, initial)


def test_a_link_that_never_sniffs_arms_no_sniff_timer():
    sim, radio, link = make_link(park_beacon_interval_s=1.0)
    sim.run(until=10.0)
    # The park-beacon loop's bootstrap and its beacon timers (the one at
    # 11 s armed at 10 s).
    assert sim.events_scheduled == 1 + 11
