"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event engine in the style
of SimPy, written from scratch for this reproduction.  All higher layers
(PHY, MAC, link, transport, OS, application and the Hotspot resource
manager) run on top of this kernel.

Quick example::

    from repro.sim import Simulator

    sim = Simulator()

    def blinker(sim, period):
        while True:
            yield sim.timeout(period)
            print("tick at", sim.now)

    sim.process(blinker(sim, 1.0))
    sim.run(until=5.0)
"""

from repro._namespace import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "events": ("AllOf", "Event", "FirstOf", "Timeout"),
        "process": ("Process",),
        "core": ("Simulator", "SimulationError"),
        "resources": ("Store",),
        "stats": ("RunningStat", "TimeSeries", "TimeWeightedStat"),
        "streams": ("RandomStreams",),
    },
)
