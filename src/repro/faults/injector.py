"""The fault injector: binds a :class:`FaultPlan` to a live simulation.

One injector per scenario run.  Targets are bound explicitly —
interfaces (via their owning clients), the Hotspot server, an 802.11
access point — then :meth:`FaultInjector.start` schedules one simulator
process per fault record.  Every injection and recovery is emitted on
the simulation's TraceBus under the ``faults`` layer, so traces show
exactly when and where the stress landed.

All timing comes from the plan; the injector draws no randomness of its
own, keeping runs byte-identical for a given (plan, seed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.faults.plan import (
    BeaconOutage,
    ClientChurn,
    FaultPlan,
    InterferenceBurst,
    RadioOutage,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import HotspotClient
    from repro.core.interfaces import ManagedInterface
    from repro.core.server import HotspotServer
    from repro.mac.psm import AccessPoint
    from repro.sim.core import Simulator


class FaultInjector:
    """Schedules a plan's faults against bound simulation targets.

    Parameters
    ----------
    sim:
        The simulator the scenario runs in.
    plan:
        The fault schedule to execute.
    """

    def __init__(self, sim: "Simulator", plan: FaultPlan) -> None:
        self.sim = sim
        self.plan = plan
        self.interfaces: Dict[str, "ManagedInterface"] = {}
        self.server: Optional["HotspotServer"] = None
        self.access_point: Optional["AccessPoint"] = None
        self.injected = 0
        self.unbound = 0
        #: Active interference severities per interface (stacked bursts).
        self._interference: Dict[str, List[float]] = {}
        self._started = False

    # -- target binding ----------------------------------------------------

    def bind_interface(self, interface: "ManagedInterface") -> None:
        """Make one managed interface targetable by name patterns."""
        self.interfaces[interface.name] = interface

    def bind_client(self, client: "HotspotClient") -> None:
        """Bind all of a client's interfaces."""
        for interface in client.interfaces.values():
            self.bind_interface(interface)

    def bind_server(self, server: "HotspotServer") -> None:
        self.server = server

    def bind_access_point(self, access_point: "AccessPoint") -> None:
        self.access_point = access_point

    # -- execution ---------------------------------------------------------

    def start(self) -> None:
        """Schedule every fault; call once, after all targets are bound."""
        if self._started:
            raise RuntimeError("fault injector already started")
        self._started = True
        for fault in self.plan:
            if isinstance(fault, RadioOutage):
                matched = [
                    iface
                    for name, iface in sorted(self.interfaces.items())
                    if fault.matches(name)
                ]
                if not matched:
                    self.unbound += 1
                    continue
                for interface in matched:
                    self.sim.process(
                        self._radio_outage(fault, interface),
                        name=f"fault:outage:{interface.name}",
                    )
            elif isinstance(fault, InterferenceBurst):
                matched = [
                    iface
                    for name, iface in sorted(self.interfaces.items())
                    if fault.matches(name)
                ]
                if not matched:
                    self.unbound += 1
                    continue
                for interface in matched:
                    self.sim.process(
                        self._interference_burst(fault, interface),
                        name=f"fault:interference:{interface.name}",
                    )
            elif isinstance(fault, ClientChurn):
                if self.server is None or fault.client not in self.server.sessions:
                    self.unbound += 1
                    continue
                self.sim.process(
                    self._client_churn(fault), name=f"fault:churn:{fault.client}"
                )
            elif isinstance(fault, BeaconOutage):
                if self.access_point is None:
                    self.unbound += 1
                    continue
                self.sim.process(
                    self._beacon_outage(fault), name="fault:beacon-outage"
                )
            else:
                raise TypeError(f"unknown fault record {fault!r}")

    def _emit(self, entity: str, kind: str, **fields) -> None:
        bus = self.sim.trace
        if bus.enabled:
            bus.emit("faults", entity, kind, **fields)

    def _delay_until(self, start_s: float):
        delay = start_s - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)

    # -- fault bodies ------------------------------------------------------

    def _radio_outage(self, fault: RadioOutage, interface: "ManagedInterface"):
        yield from self._delay_until(fault.start_s)
        interface.fail()
        self.injected += 1
        self._emit(
            interface.name, "radio-down", duration_s=fault.duration_s
        )
        yield self.sim.timeout(fault.duration_s)
        interface.revive()
        self._emit(interface.name, "radio-up")

    def _interference_burst(
        self, fault: InterferenceBurst, interface: "ManagedInterface"
    ):
        yield from self._delay_until(fault.start_s)
        stack = self._interference.setdefault(interface.name, [])
        stack.append(fault.severity)
        self._apply_interference(interface)
        self.injected += 1
        self._emit(
            interface.name,
            "interference-start",
            severity=fault.severity,
            duration_s=fault.duration_s,
        )
        yield self.sim.timeout(fault.duration_s)
        stack.remove(fault.severity)
        self._apply_interference(interface)
        self._emit(interface.name, "interference-end")

    def _apply_interference(self, interface: "ManagedInterface") -> None:
        # Overlapping bursts compound: each active burst leaves
        # (1 - severity) of the link.
        scale = 1.0
        for severity in self._interference.get(interface.name, ()):
            scale *= 1.0 - severity
        interface.quality_scale = scale

    def _client_churn(self, fault: ClientChurn):
        yield from self._delay_until(fault.leave_s)
        assert self.server is not None
        self.server.pause_client(fault.client)
        self.injected += 1
        self._emit(fault.client, "client-leave", rejoin_s=fault.rejoin_s)
        yield self.sim.timeout(fault.rejoin_s - fault.leave_s)
        self.server.resume_client(fault.client)
        self._emit(fault.client, "client-rejoin")

    def _beacon_outage(self, fault: BeaconOutage):
        yield from self._delay_until(fault.start_s)
        assert self.access_point is not None
        self.access_point.set_beacon_suppression(True)
        self.injected += 1
        self._emit(
            self.access_point.address,
            "beacon-outage-start",
            duration_s=fault.duration_s,
        )
        yield self.sim.timeout(fault.duration_s)
        self.access_point.set_beacon_suppression(False)
        self._emit(self.access_point.address, "beacon-outage-end")

    def __repr__(self) -> str:
        return (
            f"<FaultInjector faults={len(self.plan)} "
            f"interfaces={len(self.interfaces)} injected={self.injected}>"
        )
