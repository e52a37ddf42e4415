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

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Interrupt, Process
from repro.sim.core import Simulator, SimulationError
from repro.sim.resources import Resource, Store, PriorityStore
from repro.sim.stats import RunningStat, TimeSeries, TimeWeightedStat
from repro.sim.streams import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "PriorityStore",
    "Process",
    "RandomStreams",
    "Resource",
    "RunningStat",
    "SimulationError",
    "Simulator",
    "Store",
    "TimeSeries",
    "TimeWeightedStat",
    "Timeout",
]
