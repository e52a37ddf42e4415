"""Deterministic fault injection for simulation campaigns.

The paper's Figure-2 result only matters if QoS survives stress: this
package injects radio death/revival, AP beacon blackouts, mid-stream
client churn and interference bursts into otherwise-healthy scenarios —
all scheduled ahead of time in a :class:`FaultPlan` (optionally drawn
from dedicated :class:`~repro.sim.streams.RandomStreams` substreams), so
a seeded campaign with faults is exactly as reproducible as one without.

- :mod:`repro.faults.plan` — fault records and the plan container;
- :mod:`repro.faults.injector` — :class:`FaultInjector`, which binds a
  plan to interfaces/server/AP and emits every injection on the
  TraceBus's ``faults`` layer.

The graceful-degradation counterpart lives in :mod:`repro.core`: the
resource manager skips dead interfaces, fails clients over between WLAN
and Bluetooth, and re-schedules bursts the outage swallowed.
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "injector": ("FaultInjector",),
        "plan": (
            "BeaconOutage",
            "ClientChurn",
            "FaultPlan",
            "InterferenceBurst",
            "RadioOutage",
        ),
    },
)
