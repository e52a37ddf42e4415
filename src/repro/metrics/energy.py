"""Energy and average-power reporting.

:class:`EnergyBreakdown` snapshots one radio; :class:`ClientEnergyReport`
aggregates a client's WNICs plus its platform draw into the quantities
the paper's Figure 2 plots (average power per client, WNIC-only and
whole-device).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.devices.profiles import DeviceProfile
from repro.phy.radio import Radio, RadioPowerModel


@dataclass(frozen=True)
class RadioPowerConstants:
    """The power numbers of one radio, as plain scalars.

    The analytic models (:mod:`repro.analytic`) need the same constants
    the simulator charges — tx/rx/idle/sleep draw plus the sleep↔listen
    transition costs — without duplicating literals that would silently
    drift from :mod:`repro.devices.profiles`.  :meth:`of_model` reads
    them straight out of a :class:`~repro.phy.radio.RadioPowerModel`, so
    there is exactly one source of truth.
    """

    tx_w: float
    rx_w: float
    idle_w: float
    sleep_w: float
    wake_latency_s: float = 0.0
    wake_energy_j: float = 0.0
    sleep_latency_s: float = 0.0
    sleep_energy_j: float = 0.0

    @classmethod
    def of_model(
        cls,
        model: RadioPowerModel,
        tx: str = "tx",
        rx: str = "rx",
        idle: str = "idle",
        sleep: str = "doze",
    ) -> "RadioPowerConstants":
        """Extract the constants from a radio power model's states."""
        wake = model.transition(sleep, idle)
        doze = model.transition(idle, sleep)
        return cls(
            tx_w=model.power(tx),
            rx_w=model.power(rx),
            idle_w=model.power(idle),
            sleep_w=model.power(sleep),
            wake_latency_s=wake.latency_s,
            wake_energy_j=wake.energy_j,
            sleep_latency_s=doze.latency_s,
            sleep_energy_j=doze.energy_j,
        )


def wlan_cf_constants() -> RadioPowerConstants:
    """Constants of the 802.11b CF card every WLAN scenario simulates."""
    from repro.devices.profiles import wlan_cf_card

    return RadioPowerConstants.of_model(wlan_cf_card())


def unap_wlan_constants() -> RadioPowerConstants:
    """Constants of the μNap fast-doze WLAN card (``unap-hotspot``)."""
    from repro.devices.profiles import unap_wlan_card

    return RadioPowerConstants.of_model(unap_wlan_card())


@dataclass
class EnergyBreakdown:
    """Snapshot of one radio's consumption over an observation window."""

    name: str
    elapsed_s: float
    energy_j: float
    average_power_w: float
    transition_count: int
    transition_energy_j: float
    time_in_state_s: Dict[str, float]

    @classmethod
    def of(cls, radio: Radio, now: Optional[float] = None) -> "EnergyBreakdown":
        now = radio.sim.now if now is None else now
        time_in_state = {
            state: radio.time_in_state(state)
            for state in radio.model.state_names()
        }
        bus = radio.sim.trace
        if bus.enabled:
            # Per-state energy attribution: dwell × state power, with the
            # transition overhead reported on the side.
            bus.emit(
                "metrics",
                radio.name,
                "energy",
                total_j=radio.energy_j(now),
                transition_j=radio.transition_energy_j,
                by_state_j={
                    state: dwell * radio.model.power(state)
                    for state, dwell in time_in_state.items()
                    if dwell > 0
                },
            )
        return cls(
            name=radio.name,
            elapsed_s=now,
            energy_j=radio.energy_j(now),
            average_power_w=radio.average_power_w(now),
            transition_count=radio.transition_count,
            transition_energy_j=radio.transition_energy_j,
            time_in_state_s=time_in_state,
        )

    def duty_cycle(self, active_states: tuple[str, ...] = ("tx", "rx", "idle", "active")) -> float:
        """Fraction of the window spent in high-power states."""
        if self.elapsed_s <= 0:
            return 0.0
        active = sum(
            duration
            for state, duration in self.time_in_state_s.items()
            if state in active_states
        )
        return min(active / self.elapsed_s, 1.0)


@dataclass
class ClientEnergyReport:
    """One client's whole-device energy picture.

    Parameters
    ----------
    client:
        Client identifier.
    radios:
        Breakdown per WNIC.
    platform:
        The host device's profile; ``platform_busy_fraction`` says how
        much of the window the platform ran busy (e.g. decoding MP3).
    """

    client: str
    radios: List[EnergyBreakdown]
    platform: Optional[DeviceProfile] = None
    platform_busy_fraction: float = 0.0
    elapsed_s: float = 0.0

    def wnic_energy_j(self) -> float:
        """Total WNIC energy over the window."""
        return sum(r.energy_j for r in self.radios)

    def wnic_average_power_w(self) -> float:
        """Summed average WNIC power (what the 97 % saving refers to)."""
        return sum(r.average_power_w for r in self.radios)

    def platform_average_power_w(self) -> float:
        """Host platform average power from the busy/idle split."""
        if self.platform is None:
            return 0.0
        busy = self.platform_busy_fraction
        return (
            busy * self.platform.busy_power_w
            + (1.0 - busy) * self.platform.idle_power_w
        )

    def total_average_power_w(self) -> float:
        """Whole-device average power (platform + all WNICs)."""
        return self.platform_average_power_w() + self.wnic_average_power_w()

    def total_energy_j(self) -> float:
        return (
            self.platform_average_power_w() * self.elapsed_s + self.wnic_energy_j()
        )


def wnic_power_saving_fraction(
    baseline_w: float, optimised_w: float
) -> float:
    """The paper's headline metric: 1 - optimised/baseline."""
    if baseline_w <= 0:
        raise ValueError("baseline power must be positive")
    if optimised_w < 0:
        raise ValueError("optimised power must be >= 0")
    return 1.0 - optimised_w / baseline_w
