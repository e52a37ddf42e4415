"""repro.net — multi-AP hotspot fleets: topology, roaming, steering.

The paper's Hotspot is a single server cell; this package scales it
out.  A :class:`Topology` of placed :class:`AccessPointSite` cells
derives coverage footprints from :mod:`repro.phy.channel` link budgets,
the :class:`AssociationManager` tracks which cell each client is
attached to, the :class:`FleetCoordinator` runs one
:class:`~repro.core.server.HotspotServer` per cell and steers new
admissions to the least-loaded covering cell, and the
:class:`HandoffController` roams clients between cells (with hysteresis
and seeded, deterministic latencies) without QoS underruns.

:func:`repro.build.presets.fleet_hotspot_world` describes the canonical
fleet experiment (a corridor of cells, a population of random-waypoint
walkers), registered as ``fleet-hotspot`` in :mod:`repro.exp.scenarios`.
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "association": ("AssociationManager",),
        "fleet": ("DEFAULT_CAPACITY_BPS", "Cell", "FleetCoordinator"),
        "handoff": ("HandoffController",),
        "topology": (
            "BLUETOOTH_LINK_BUDGET",
            "WLAN_LINK_BUDGET",
            "AccessPointSite",
            "LinkBudget",
            "Topology",
            "grid_deployment",
            "linear_deployment",
        ),
    },
)
