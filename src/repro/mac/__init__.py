"""MAC layer: 802.11 DCF + power-save mode, EC-MAC, aggregation, PAMAS, Bluetooth.

Implements every MAC-level technique the paper's survey names:

- :mod:`repro.mac.dcf` — the 802.11 distributed coordination function
  (CSMA/CA with binary exponential backoff) as the contention substrate;
- :mod:`repro.mac.powersave` — μNap micro-sleeps, the observer a DCF
  station may take to doze through other stations' reservations;
- :mod:`repro.mac.psm` — the 802.11 power-saving standard: beacons carry a
  traffic-indication map, dozing stations wake per beacon and PS-Poll for
  buffered frames;
- :mod:`repro.mac.ecmac` — EC-MAC's centrally broadcast transmission
  schedule (collision-free slots, exact doze windows);
- :mod:`repro.mac.aggregation` — MAC-layer packet aggregation for longer
  sleep periods;
- :mod:`repro.mac.pamas` — PAMAS-style battery-level-driven independent
  sleep;
- :mod:`repro.mac.bluetooth` — Bluetooth ACL links with the
  active/sniff/hold/park low-power modes the Hotspot client uses.
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "frames": ("Dot11Timing", "Frame", "FrameKind"),
        "medium": ("Medium",),
        "dcf": ("DcfConfig", "DcfStation"),
        "powersave": ("MicroNapPolicy",),
        "psm": ("AccessPoint", "PsmConfig", "PsmStation"),
        "ecmac": (
            "EcMacConfig",
            "EcMacCoordinator",
            "EcMacStation",
            "ScheduleEntry",
        ),
        "aggregation": ("AggregatorStats", "PacketAggregator"),
        "pamas": (
            "PamasNode",
            "PamasStats",
            "aggressive_sleep_policy",
            "linear_sleep_policy",
        ),
        "bluetooth": ("BluetoothLink",),
        "rate_adaptation": ("AarfRateController", "ArfRateController"),
        "spatial": ("SpatialMedium", "audibility_from_groups"),
    },
)
