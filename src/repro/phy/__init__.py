"""Physical layer: radio power states, channel models and batteries.

The paper's §1 notes that WLAN hardware consumes similar power in transmit
and receive, spends up to 90 % of its time listening, and that deep
low-power states (doze/off for WLAN, park for Bluetooth) are where real
savings live.  This package provides the calibrated power-state machinery
(:mod:`repro.phy.radio`), the propagation/error models that trigger
adaptation decisions (:mod:`repro.phy.channel`), and battery models for
lifetime studies (:mod:`repro.phy.battery`).
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "radio": ("PowerState", "Radio", "RadioPowerModel", "Transition"),
        "channel": (
            "FreeSpacePathLoss",
            "GilbertElliottChannel",
            "LogDistancePathLoss",
            "ScriptedLinkQuality",
            "packet_error_rate",
            "snr_db_from_link_budget",
        ),
        "battery": ("Battery",),
        "mobility": ("RandomWaypoint",),
    },
)
