"""The paper's contribution: the Hotspot resource manager.

§2 of the paper: an application-level proxy on the Hotspot server is
extended with a *resource manager* that

- registers clients and their QoS needs (:mod:`repro.core.qos`),
- schedules data transmission in **large bursts** so clients' WNICs sleep
  between them (:mod:`repro.core.scheduling` — EDF, WFQ and friends),
- dynamically selects each client's wireless interface (Bluetooth vs
  WLAN) as channel conditions change (:mod:`repro.core.server`),
- while the client-side resource manager executes the schedule by
  transitioning the WNICs between power states
  (:mod:`repro.core.client`, :mod:`repro.core.interfaces`).

:mod:`repro.core.outcome` holds what every run produces
(:class:`ScenarioResult`); :mod:`repro.build` wires the layers into
runnable worlds, including the unscheduled baselines of the paper's
Figure 2.
"""

from repro.core.qos import QoSContract
from repro.core.interfaces import (
    ManagedInterface,
    bluetooth_interface,
    gprs_interface,
    wlan_interface,
)
from repro.core.scheduling import (
    BurstRequest,
    EdfScheduler,
    FifoScheduler,
    LowBatteryFirstScheduler,
    RateMonotonicScheduler,
    RoundRobinScheduler,
    WeightedFairScheduler,
    WeightedRoundRobinScheduler,
    make_scheduler,
)
from repro.core.client import HotspotClient
from repro.core.server import HotspotServer, InterfaceSelectionPolicy
from repro.core.outcome import ScenarioResult, VOLATILE_TIMING_FIELDS

__all__ = [
    "BurstRequest",
    "EdfScheduler",
    "FifoScheduler",
    "HotspotClient",
    "HotspotServer",
    "InterfaceSelectionPolicy",
    "LowBatteryFirstScheduler",
    "ManagedInterface",
    "QoSContract",
    "RateMonotonicScheduler",
    "RoundRobinScheduler",
    "ScenarioResult",
    "VOLATILE_TIMING_FIELDS",
    "WeightedFairScheduler",
    "WeightedRoundRobinScheduler",
    "bluetooth_interface",
    "gprs_interface",
    "make_scheduler",
    "wlan_interface",
]
