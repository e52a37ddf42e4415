"""Factories for the radio/platform power models used in the evaluation.

Substitution note (see DESIGN.md): the paper measured real hardware with a
data-acquisition board; we reproduce the *power-state structure* with
published numbers so that time-in-state accounting yields the same average
power shape.  Sources:

- 802.11b CF card: vendor datasheets for 2002-era CF WLAN cards
  (Cisco Aironet 350 / Socket CF) and the measurements quoted in the
  authors' MMCN'05 companion paper — transmit ~1.4 W, receive ~1.0 W,
  listen/idle ~0.83 W, PSM doze ~0.13 W, off ~0 W; off→on wake takes
  ~300 ms and costs ~0.25 J; doze→idle ~2 ms.
- Bluetooth 1.1 module (CSR BlueCore-class): active ~0.12 W,
  sniff ~0.05 W, hold ~0.03 W, park ~0.012 W; park→active ~4 ms.
- iPAQ 3970 platform (PXA250): ~1.57 W busy decoding + backlight,
  ~0.98 W idle-on, per published handheld power studies.
- GPRS modem: ~1.1 W transferring, ~0.05 W standby (high-latency wake).

The numbers matter only insofar as the *ratios* and transition costs set
where scheduling pays off; EXPERIMENTS.md records the resulting figures.

Each factory returns one shared instance per process: profiles and power
models are immutable, so every radio can use the same one instead of
rebuilding its all-pairs transition table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from repro.phy.radio import PowerState, RadioPowerModel, Transition


@dataclass(frozen=True)
class DeviceProfile:
    """A platform (non-WNIC) power profile for whole-device accounting.

    Attributes
    ----------
    name:
        Platform name.
    busy_power_w:
        Power while the CPU is actively working (e.g. decoding MP3).
    idle_power_w:
        Power while powered on but idle.
    sleep_power_w:
        Power in platform suspend.
    """

    name: str
    busy_power_w: float
    idle_power_w: float
    sleep_power_w: float

    def __post_init__(self) -> None:
        if not self.busy_power_w >= self.idle_power_w >= self.sleep_power_w >= 0:
            raise ValueError(
                f"{self.name}: expected busy >= idle >= sleep >= 0, got "
                f"{self.busy_power_w}/{self.idle_power_w}/{self.sleep_power_w}"
            )


@cache
def ipaq_3970() -> DeviceProfile:
    """The iPAQ 3970 PDA platform used in the paper's Figure 2."""
    return DeviceProfile(
        name="iPAQ 3970",
        busy_power_w=1.57,
        idle_power_w=0.98,
        sleep_power_w=0.065,
    )


#: Nominal 802.11b data rates in bits/second, by modulation name.
WLAN_RATES_BPS = {
    "1M": 1_000_000,
    "2M": 2_000_000,
    "5.5M": 5_500_000,
    "11M": 11_000_000,
}

#: Bluetooth 1.1 asymmetric ACL (DH5) payload rate in bits/second.
BLUETOOTH_ACL_RATE_BPS = 723_200


@cache
def wlan_cf_card() -> RadioPowerModel:
    """802.11b CompactFlash WLAN card power model.

    States: ``tx``, ``rx``, ``idle`` (listening — where the survey notes
    WLANs spend up to 90 % of their time), ``doze`` (802.11 PSM sleep,
    radio off but clock running) and ``off``.
    """
    return RadioPowerModel(
        name="wlan-cf",
        states=[
            PowerState("tx", power_w=1.40, can_communicate=True),
            PowerState("rx", power_w=1.00, can_communicate=True),
            PowerState("idle", power_w=0.83, can_communicate=True),
            PowerState("doze", power_w=0.13),
            PowerState("off", power_w=0.0),
        ],
        transitions=[
            # PSM doze wake: order of a couple of milliseconds.
            Transition("doze", "idle", latency_s=0.002, energy_j=0.002),
            Transition("idle", "doze", latency_s=0.001, energy_j=0.001),
            # Full power-off wake: card re-associates with the AP.
            Transition("off", "idle", latency_s=0.300, energy_j=0.250),
            Transition("idle", "off", latency_s=0.010, energy_j=0.005),
            Transition("rx", "off", latency_s=0.010, energy_j=0.005),
            Transition("off", "rx", latency_s=0.300, energy_j=0.250),
        ],
        initial_state="idle",
    )


@cache
def unap_wlan_card() -> RadioPowerModel:
    """802.11 WLAN card with μNap-grade fast doze transitions.

    Same operating powers as :func:`wlan_cf_card`, but the doze↔idle
    path is sped up to the sub-millisecond transition times μNap
    (Azcorra et al., PAPERS.md) demonstrates on commodity NICs: dropping
    into doze takes tens of microseconds while waking takes a few
    hundred — transition times of this order are exactly what makes
    napping inside a single NAV reservation worthwhile.  With these
    numbers the energy break-even window is ~300 μs (see
    ``MicroNapPolicy._break_even_s``): an overheard RTS/CTS reservation
    for a 1000-byte frame (~1.3 ms) comfortably clears it.

    The slow full power-off path is unchanged — μNap only touches the
    doze clock domain.
    """
    return RadioPowerModel(
        name="wlan-unap",
        states=[
            PowerState("tx", power_w=1.40, can_communicate=True),
            PowerState("rx", power_w=1.00, can_communicate=True),
            PowerState("idle", power_w=0.83, can_communicate=True),
            PowerState("doze", power_w=0.13),
            PowerState("off", power_w=0.0),
        ],
        transitions=[
            # μNap-grade micro-sleep path: microseconds, not milliseconds.
            Transition("doze", "idle", latency_s=250e-6, energy_j=120e-6),
            Transition("idle", "doze", latency_s=50e-6, energy_j=24e-6),
            # Full power-off wake: card re-associates with the AP.
            Transition("off", "idle", latency_s=0.300, energy_j=0.250),
            Transition("idle", "off", latency_s=0.010, energy_j=0.005),
            Transition("rx", "off", latency_s=0.010, energy_j=0.005),
            Transition("off", "rx", latency_s=0.300, energy_j=0.250),
        ],
        initial_state="idle",
    )


@cache
def bluetooth_module() -> RadioPowerModel:
    """Bluetooth 1.1 module power model (CSR BlueCore class).

    States: ``active`` (ACL data), ``connected`` (link up, no data),
    ``sniff``, ``hold``, ``park`` (the paper's between-burst state) and
    ``off``.
    """
    return RadioPowerModel(
        name="bluetooth",
        states=[
            PowerState("active", power_w=0.120, can_communicate=True),
            PowerState("connected", power_w=0.085, can_communicate=True),
            PowerState("sniff", power_w=0.050),
            PowerState("hold", power_w=0.030),
            PowerState("park", power_w=0.012),
            PowerState("off", power_w=0.0),
        ],
        transitions=[
            Transition("park", "active", latency_s=0.004, energy_j=0.0005),
            Transition("active", "park", latency_s=0.002, energy_j=0.0002),
            Transition("sniff", "active", latency_s=0.002, energy_j=0.0002),
            Transition("active", "sniff", latency_s=0.001, energy_j=0.0001),
            Transition("hold", "active", latency_s=0.003, energy_j=0.0003),
            Transition("active", "hold", latency_s=0.001, energy_j=0.0001),
            Transition("connected", "active", latency_s=0.0, energy_j=0.0),
            Transition("active", "connected", latency_s=0.0, energy_j=0.0),
            Transition("connected", "park", latency_s=0.002, energy_j=0.0002),
            Transition("park", "connected", latency_s=0.004, energy_j=0.0005),
            # Re-establishing a torn-down link is expensive (inquiry+page).
            Transition("off", "active", latency_s=1.200, energy_j=0.150),
            Transition("active", "off", latency_s=0.010, energy_j=0.001),
        ],
        initial_state="connected",
    )


@cache
def gprs_modem() -> RadioPowerModel:
    """GPRS modem power model, for heterogeneous-interface studies.

    GPRS trades very low standby power for a slow, energy-hungry
    attach/transfer path — the opposite corner of the design space from
    WLAN, which is what makes interface selection interesting.
    """
    return RadioPowerModel(
        name="gprs",
        states=[
            PowerState("transfer", power_w=1.10, can_communicate=True),
            PowerState("ready", power_w=0.40, can_communicate=True),
            PowerState("standby", power_w=0.05),
            PowerState("off", power_w=0.0),
        ],
        transitions=[
            Transition("standby", "ready", latency_s=0.500, energy_j=0.300),
            Transition("ready", "standby", latency_s=0.050, energy_j=0.010),
            Transition("ready", "transfer", latency_s=0.0, energy_j=0.0),
            Transition("transfer", "ready", latency_s=0.0, energy_j=0.0),
            Transition("off", "ready", latency_s=5.000, energy_j=3.000),
            Transition("ready", "off", latency_s=0.100, energy_j=0.020),
        ],
        initial_state="standby",
    )


#: GPRS payload rate (CS-2, 3+1 timeslots) in bits/second.
GPRS_RATE_BPS = 40_200
