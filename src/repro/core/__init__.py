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

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "qos": ("QoSContract",),
        "interfaces": (
            "ManagedInterface",
            "bluetooth_interface",
            "gprs_interface",
            "wlan_interface",
        ),
        "scheduling": (
            "BurstRequest",
            "EdfScheduler",
            "FifoScheduler",
            "LowBatteryFirstScheduler",
            "RateMonotonicScheduler",
            "RoundRobinScheduler",
            "WeightedFairScheduler",
            "WeightedRoundRobinScheduler",
            "make_scheduler",
        ),
        "client": ("HotspotClient",),
        "server": ("HotspotServer", "InterfaceSelectionPolicy"),
        "outcome": ("ScenarioResult", "VOLATILE_TIMING_FIELDS"),
    },
)
