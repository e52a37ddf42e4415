"""The client-side resource manager.

The paper: *"The client's resource manager implements the scheduling
decisions by enabling data transfer and transitioning the wireless
network interfaces (WNICs) between power states.  It also aggregates
information, such as its WLAN power state characteristics and QoS needs
of the applications."*

:class:`HotspotClient` owns the client's interfaces and playout buffer,
executes server-scheduled bursts (wake → transfer → deliver → sleep), and
exposes the aggregate report the server's policies feed on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.interfaces import ManagedInterface, as_event
from repro.core.qos import QoSContract
from repro.devices.profiles import DeviceProfile
from repro.metrics.energy import ClientEnergyReport, EnergyBreakdown
from repro.metrics.qos import PlayoutBuffer, QosSummary
from repro.phy.battery import Battery

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.events import Event


@dataclass
class ClientReport:
    """The aggregate the client registers with the server."""

    client: str
    contract: QoSContract
    interface_names: List[str]
    buffer_level_bytes: float
    playback_buffered_s: float
    playing: bool
    battery_level: float


class HotspotClient:
    """A mobile running the client resource manager.

    Parameters
    ----------
    name:
        Client identifier (unique per server).
    contract:
        The QoS contract for the client's stream.
    interfaces:
        The client's WNICs by name; the server chooses among them.
    platform:
        Host platform profile for whole-device power accounting.
    battery:
        Optional battery drained by WNIC + platform power (feeds the
        battery level the server sees).
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        contract: QoSContract,
        interfaces: Dict[str, ManagedInterface],
        platform: Optional[DeviceProfile] = None,
        battery: Optional[Battery] = None,
    ) -> None:
        if not interfaces:
            raise ValueError("client needs at least one interface")
        self.sim = sim
        self.name = name
        self.contract = contract
        self.interfaces = dict(interfaces)
        self.platform = platform
        self.battery = battery
        self.playout = PlayoutBuffer(
            drain_rate_bps=contract.stream_rate_bps,
            prebuffer_s=contract.prebuffer_s,
            capacity_bytes=contract.client_buffer_bytes,
        )
        self.bursts_received = 0
        self.bytes_received = 0
        #: Bursts started but not yet back asleep.  The shard layer
        #: requires 0 before migrating.
        self.bursts_in_flight = 0
        #: (time, interface, nbytes) burst log for timelines.
        self.burst_log: List[Tuple[float, str, int]] = []
        self._start_time = sim.now

    # -- info aggregation ----------------------------------------------------

    def report(self) -> ClientReport:
        """What the client-side middleware tells the server."""
        self.playout.advance_to(self.sim.now)
        if self.battery is not None:
            self.contract.battery_level = self.battery.state_of_charge
        return ClientReport(
            client=self.name,
            contract=self.contract,
            interface_names=list(self.interfaces),
            buffer_level_bytes=self.playout.level_bytes,
            playback_buffered_s=self.playout.playback_time_buffered_s(),
            playing=self.playout.playing,
            battery_level=self.contract.battery_level,
        )

    def buffer_space_bytes(self) -> int:
        """Room left in the client buffer right now."""
        self.playout.advance_to(self.sim.now)
        return max(
            int(self.contract.client_buffer_bytes - self.playout.level_bytes), 0
        )

    def time_until_underrun_s(self) -> float:
        """Playback time left in the buffer (inf before playback starts)."""
        self.playout.advance_to(self.sim.now)
        if not self.playout.playing:
            return float("inf")
        return self.playout.playback_time_buffered_s()

    # -- schedule execution --------------------------------------------------------

    def initialise(self) -> Event:
        """Park every interface, one after the other; the server wakes
        them per burst."""
        interfaces = list(self.interfaces.values())

        def park(then: Callable[[], None]) -> None:
            if not interfaces:
                return then()
            interface = interfaces.pop(0)
            interface._goto(interface.sleep_state, lambda: park(then))

        return as_event(self.sim, park)

    def execute_burst(self, interface_name: str, nbytes: int) -> Event:
        """Receive one scheduled burst; yield the returned event.

        Wake → transfer → deliver to the playout buffer → sleep, exactly
        the client-side sequence of the paper's Figure 1, as one chain of
        callbacks on the interface's transitions and transfer timer.  The
        event's value is the bytes delivered: ``nbytes``, or 0 when the
        interface is dead.
        """
        if interface_name not in self.interfaces:
            raise KeyError(
                f"client {self.name!r} has no interface {interface_name!r}"
            )
        if nbytes <= 0:
            raise ValueError("burst must be positive")
        interface = self.interfaces[interface_name]
        if not interface.alive:
            # The WNIC died between scheduling and service: report zero
            # bytes so the server keeps the backlog and re-schedules the
            # burst on whatever interface the next round selects.
            bus = self.sim.trace
            if bus.enabled:
                bus.emit(
                    "core",
                    self.name,
                    "burst-abort",
                    interface=interface_name,
                    nbytes=nbytes,
                )
            return as_event(self.sim, lambda then: then(), value=0)
        self.bursts_in_flight += 1
        started = self.sim.now

        def burst(then: Callable[[], None]) -> None:
            def transferred() -> None:
                # Advance the playout model to the end of the transfer,
                # then fill.
                now = self.sim.now
                self.playout.deliver(now, nbytes)
                self.bursts_received += 1
                self.bytes_received += nbytes
                self.burst_log.append((now, interface_name, nbytes))
                bus = self.sim.trace
                if bus.enabled:
                    bus.emit(
                        "core",
                        self.name,
                        "burst",
                        interface=interface_name,
                        nbytes=nbytes,
                        duration_s=now - started,
                        buffered_s=self.playout.playback_time_buffered_s(),
                    )
                interface._goto(interface.sleep_state, slept)

            def slept() -> None:
                self.bursts_in_flight -= 1
                then()

            interface._goto(
                interface.resting_state,
                lambda: interface._transfer(nbytes, transferred),
            )

        return as_event(self.sim, burst, value=nbytes)

    # -- churn -------------------------------------------------------------

    def suspend(self) -> None:
        """The user walked away: pause playback (no underruns accrue)."""
        self.playout.pause(self.sim.now)

    def resume(self) -> None:
        """The user came back: playback picks up from the buffered level."""
        self.playout.resume(self.sim.now)

    # -- accounting ---------------------------------------------------------------------

    def wnic_average_power_w(self, now: Optional[float] = None) -> float:
        """Summed average power of all this client's WNICs."""
        return sum(
            interface.radio.average_power_w(now)
            for interface in self.interfaces.values()
        )

    def finish(self, now: Optional[float] = None) -> QosSummary:
        """Close the playout model and return the QoS summary."""
        return self.playout.finish(self.sim.now if now is None else now)

    def energy_report(self, busy_fraction: float = 0.15) -> ClientEnergyReport:
        """Whole-device energy picture over the elapsed window."""
        return ClientEnergyReport(
            client=self.name,
            radios=[
                EnergyBreakdown.of(interface.radio)
                for interface in self.interfaces.values()
            ],
            platform=self.platform,
            platform_busy_fraction=busy_fraction,
            elapsed_s=self.sim.now - self._start_time,
        )

    def __repr__(self) -> str:
        return (
            f"<HotspotClient {self.name!r} buffered="
            f"{self.playout.level_bytes:.0f}B bursts={self.bursts_received}>"
        )
