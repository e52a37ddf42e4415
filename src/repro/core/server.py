"""The Hotspot server's resource manager.

The paper: *"The resource manager's goal is to schedule data transmission
times with clients in order to meet QoS requirements while minimizing the
power consumption. ... Resource manager on the server dynamically selects
the appropriate wireless network interface on each client (e.g.
Bluetooth, WLAN), schedules data transfer in the large bursts of TCP or
UDP packets and allocates appropriate bandwidth for communication."*

Mechanics per scheduling round (:class:`HotspotServer`):

1. For each registered client, re-evaluate the interface-selection
   policy (Bluetooth preferred while its link quality holds, WLAN when
   it degrades — the paper's switchover scenario).
2. Build a :class:`~repro.core.scheduling.BurstRequest` for every client
   whose backlog and buffer space justify a burst, with the deadline at
   which the client's playout buffer would underrun.
3. Order the requests with the configured scheduler (EDF, WFQ, ...).
4. Serve each channel's bursts back-to-back: the client resource manager
   wakes the chosen WNIC, receives the burst, and re-enters the low-power
   state (park / off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.core.client import HotspotClient
from repro.core.scheduling import BurstRequest, BurstScheduler, make_scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.traffic import ArrivalFeed
    from repro.sim.core import Simulator


class AdmissionError(RuntimeError):
    """Raised when a client's contract cannot be carried by any interface."""


class InterfaceSelectionPolicy:
    """Pick a client's interface from link quality and contract needs.

    The default policy encodes the paper's behaviour: interfaces are
    tried in ``preference`` order (lowest-power first) and the first one
    whose link quality clears ``quality_threshold`` *and* whose effective
    rate covers the contracted stream rate with ``rate_margin`` wins;
    if none qualifies, the highest-quality interface is used.
    """

    def __init__(
        self,
        preference: Sequence[str] = ("bluetooth", "wlan", "gprs"),
        quality_threshold: float = 0.5,
        rate_margin: float = 1.5,
    ) -> None:
        if not preference:
            raise ValueError("preference order must not be empty")
        if not 0.0 <= quality_threshold <= 1.0:
            raise ValueError("quality threshold must be in [0, 1]")
        if rate_margin < 1.0:
            raise ValueError("rate margin must be >= 1")
        self.preference = list(preference)
        self.quality_threshold = quality_threshold
        self.rate_margin = rate_margin

    def select(
        self,
        client: HotspotClient,
        now: float,
        committed_bps: Optional[Dict[str, float]] = None,
    ) -> str:
        """Pick ``client``'s interface; ``committed_bps`` makes it load-aware.

        Without ``committed_bps`` only the client's own contracted rate
        must fit (the paper's three-client testbed never needed more).
        With it — the rate already promised to *other* clients per
        channel, as the server tracks — the margin applies to the
        aggregate, so a preferred low-power channel stops attracting
        clients once the contracts on it approach its effective rate:
        the overflow lands on the next interface in preference order
        instead of saturating the channel.  Fleet cells rely on this.
        """
        candidates = [
            name for name in self.preference if name in client.interfaces
        ]
        candidates += [
            name for name in client.interfaces if name not in candidates
        ]
        # Dead interfaces (radio outage) are never eligible while any
        # alternative lives — this is the WLAN<->Bluetooth failover path.
        alive = [
            name for name in candidates if client.interfaces[name].alive
        ]
        pool = alive or candidates
        for name in pool:
            interface = client.interfaces[name]
            committed = committed_bps.get(name, 0.0) if committed_bps else 0.0
            required_rate = (
                committed + client.contract.stream_rate_bps
            ) * self.rate_margin
            if (
                interface.quality_at(now) >= self.quality_threshold
                and interface.effective_rate_bps >= required_rate
            ):
                return name
        # Nothing qualifies cleanly: fall back to the best link available.
        return max(pool, key=lambda n: client.interfaces[n].quality_at(now))


@dataclass
class ClientSession:
    """Server-side state for one registered client."""

    client: HotspotClient
    backlog_bytes: int = 0
    interface: Optional[str] = None
    switchovers: int = 0
    bursts_served: int = 0
    bytes_served: int = 0
    #: True while the client is away (churn); no bursts are scheduled.
    paused: bool = False
    #: Bursts that delivered nothing because the interface was dead.
    bursts_failed: int = 0
    interface_log: List[tuple[float, str]] = field(default_factory=list)
    #: Proxy stream arrivals not yet credited; every backlog read
    #: settles it.  None when a pump ingests each arrival eagerly.
    feed: Optional["ArrivalFeed"] = field(default=None, repr=False, compare=False)


def _read_backlog(session: ClientSession) -> int:
    feed = session.feed
    if feed is not None:
        session._backlog += feed.settle()
    return session._backlog


def _write_backlog(session: ClientSession, nbytes: int) -> None:
    feed = session.feed
    if feed is not None:
        feed.settle()  # an absolute write supersedes what has landed so far
    session._backlog = nbytes


# Installed over the dataclass field after decoration, so the generated
# ``__init__`` (and its ``backlog_bytes=`` argument) assigns through it.
ClientSession.backlog_bytes = property(
    _read_backlog, _write_backlog, doc="Proxy bytes queued for the client."
)


class HotspotServer:
    """The server-side resource manager.

    Parameters
    ----------
    scheduler:
        A :class:`BurstScheduler` or a registry name ("edf", "wfq", ...).
    epoch_s:
        Scheduling-round period.
    min_burst_bytes:
        Bursts are deferred until at least this much backlog *and* client
        buffer space exist (the paper's "10s of Kbytes at a time"),
        unless the client's deadline forces an early burst.
    deadline_safety_s:
        Serve a client no later than this long before its buffer empties.
    interface_policy:
        Interface-selection policy; defaults to Bluetooth-first.
    utilisation_cap:
        Default admission budget: a new contract fits an interface when
        committed + new rate stays below this fraction of the channel's
        effective rate.  Fleet experiments sweep it.
    """

    def __init__(
        self,
        sim: "Simulator",
        scheduler: Union[BurstScheduler, str] = "edf",
        epoch_s: float = 0.25,
        min_burst_bytes: int = 20_000,
        deadline_safety_s: float = 0.5,
        interface_policy: Optional[InterfaceSelectionPolicy] = None,
        utilisation_cap: float = 0.9,
        load_aware_selection: bool = False,
    ) -> None:
        if epoch_s <= 0:
            raise ValueError("epoch must be positive")
        if min_burst_bytes <= 0:
            raise ValueError("min burst must be positive")
        if deadline_safety_s < 0:
            raise ValueError("deadline safety must be >= 0")
        if not 0.0 < utilisation_cap <= 1.0:
            raise ValueError("utilisation cap must be in (0, 1]")
        self.utilisation_cap = utilisation_cap
        self.sim = sim
        self.scheduler = (
            make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.epoch_s = epoch_s
        self.min_burst_bytes = min_burst_bytes
        self.deadline_safety_s = deadline_safety_s
        self.interface_policy = interface_policy or InterfaceSelectionPolicy()
        self.load_aware_selection = load_aware_selection
        self.sessions: Dict[str, ClientSession] = {}
        self.rounds = 0
        self.bursts_served = 0
        self.bytes_served = 0
        self._running = False

    # -- registration ----------------------------------------------------------

    def projected_load_bps(self, interface_name: str) -> float:
        """Contracted rate already assigned to ``interface_name``."""
        return sum(
            session.client.contract.stream_rate_bps
            for session in self.sessions.values()
            if session.interface == interface_name
            or (
                session.interface is None
                and interface_name in session.client.interfaces
            )
        )

    def can_admit(
        self, client: HotspotClient, utilisation_cap: Optional[float] = None
    ) -> bool:
        """Bandwidth allocation check: can any interface host this contract?

        The paper's resource manager "allocates appropriate bandwidth for
        communication": a new client is admissible when at least one of
        its interfaces has headroom for its contracted rate on top of the
        rates already promised to clients on that channel.  The cap
        defaults to the server's configured ``utilisation_cap``.
        """
        if utilisation_cap is None:
            utilisation_cap = self.utilisation_cap
        if not 0.0 < utilisation_cap <= 1.0:
            raise ValueError("utilisation cap must be in (0, 1]")
        for name, interface in client.interfaces.items():
            load = self.projected_load_bps(name)
            capacity = interface.effective_rate_bps * utilisation_cap
            if load + client.contract.stream_rate_bps <= capacity:
                return True
        return False

    def register(
        self, client: HotspotClient, enforce_admission: bool = False
    ) -> ClientSession:
        """Admit a client: record its contract, park its interfaces.

        With ``enforce_admission``, raises :class:`AdmissionError` when no
        interface has bandwidth headroom for the contract.
        """
        if client.name in self.sessions:
            raise ValueError(f"client {client.name!r} already registered")
        if enforce_admission and not self.can_admit(client):
            raise AdmissionError(
                f"no interface can carry {client.contract.stream_rate_bps:.0f} b/s "
                f"for client {client.name!r} given current commitments"
            )
        session = ClientSession(client=client)
        self.sessions[client.name] = session
        client.initialise()
        return session

    # -- roaming (repro.net handoff) -------------------------------------------

    def detach_session(self, client_name: str) -> ClientSession:
        """Remove and return a session wholesale (handoff to another cell).

        The session object — backlog, counters, interface log — travels
        with the client to the adopting server; nothing about the client
        itself is touched, so an in-flight burst completes against the
        same shared session state.
        """
        session = self.sessions.pop(client_name, None)
        if session is None:
            raise KeyError(f"unknown client {client_name!r}")
        bus = self.sim.trace
        if bus.enabled:
            bus.emit("core", client_name, "session-detached")
        return session

    def adopt_session(
        self, session: ClientSession, enforce_admission: bool = False
    ) -> ClientSession:
        """Adopt a session another server detached (handoff arrival).

        Unlike :meth:`register` the client's interfaces are *not*
        re-initialised — its radios keep whatever state the previous
        cell left them in — and its accumulated backlog rides along.
        """
        name = session.client.name
        if name in self.sessions:
            raise ValueError(f"client {name!r} already registered")
        if enforce_admission and not self.can_admit(session.client):
            raise AdmissionError(
                f"no interface can carry "
                f"{session.client.contract.stream_rate_bps:.0f} b/s "
                f"for roaming client {name!r} given current commitments"
            )
        self.sessions[name] = session
        bus = self.sim.trace
        if bus.enabled:
            bus.emit("core", name, "session-adopted")
        return session

    # -- traffic ingress -----------------------------------------------------------

    def ingest(self, client_name: str, nbytes: int, kind: str = "data") -> None:
        """Data for ``client_name`` arrived at the server (proxy input)."""
        if nbytes <= 0:
            raise ValueError("ingest size must be positive")
        session = self.sessions.get(client_name)
        if session is None:
            raise KeyError(f"unknown client {client_name!r}")
        session.backlog_bytes += nbytes

    def sink_for(self, client_name: str):
        """A TrafficSource-compatible sink bound to one client."""

        def sink(nbytes: int, kind: str) -> None:
            self.ingest(client_name, nbytes, kind)

        return sink

    # -- churn -----------------------------------------------------------------

    def pause_client(self, client_name: str) -> None:
        """The client left mid-stream: stop scheduling it, pause playback.

        Its proxy backlog keeps accruing (the stream source does not
        know), bounded by the client buffer clamp at serve time.
        """
        session = self.sessions.get(client_name)
        if session is None:
            raise KeyError(f"unknown client {client_name!r}")
        if session.paused:
            return
        session.paused = True
        session.client.suspend()
        bus = self.sim.trace
        if bus.enabled:
            bus.emit("core", client_name, "client-paused")

    def resume_client(self, client_name: str) -> None:
        """The client rejoined: schedule its bursts again."""
        session = self.sessions.get(client_name)
        if session is None:
            raise KeyError(f"unknown client {client_name!r}")
        if not session.paused:
            return
        session.paused = False
        session.client.resume()
        bus = self.sim.trace
        if bus.enabled:
            bus.emit("core", client_name, "client-resumed")

    # -- the scheduling engine ---------------------------------------------------------

    def start(self):
        """Launch the scheduling loop; yields the process if desired."""
        if self._running:
            raise RuntimeError("server already started")
        self._running = True
        return self.sim.process(self._scheduling_loop(), name="hotspot-server")

    def _scheduling_loop(self):
        while True:
            yield self.sim.timeout(self.epoch_s)
            self.rounds += 1
            requests = self._build_requests()
            if not requests:
                continue
            bus = self.sim.trace
            if bus.enabled:
                bus.emit(
                    "core",
                    "server",
                    "round",
                    number=self.rounds,
                    requests=len(requests),
                    scheduler=self.scheduler.name,
                )
            ordered = self.scheduler.order(requests, self.sim.now)
            # Partition by channel: different interfaces transfer in
            # parallel, bursts on one channel go back-to-back in order.
            by_channel: Dict[str, List[BurstRequest]] = {}
            for request in ordered:
                session = self.sessions.get(request.client)
                if session is None:
                    continue  # handed off between build and dispatch
                by_channel.setdefault(session.interface or "", []).append(request)
            serving = [
                self.sim.process(
                    self._serve_channel(channel, channel_requests),
                    name=f"serve:{channel}",
                )
                for channel, channel_requests in by_channel.items()
            ]
            # Join the channels one by one: a channel already done is
            # passed at once, so the round ends in the dispatch of its
            # last channel, with no join event of its own.
            for process in serving:
                yield process

    def _build_requests(self) -> List[BurstRequest]:
        requests: List[BurstRequest] = []
        now = self.sim.now
        # With load-aware selection, track the contracted rate assigned
        # per channel and maintain it through the loop, so clients
        # re-evaluated later in this round see the assignments (and
        # overflows) of the earlier ones.
        committed: Optional[Dict[str, float]] = None
        if self.load_aware_selection:
            committed = {}
            for session in self.sessions.values():
                if not session.paused and session.interface is not None:
                    committed[session.interface] = (
                        committed.get(session.interface, 0.0)
                        + session.client.contract.stream_rate_bps
                    )
        for session in self.sessions.values():
            client = session.client
            if session.paused:
                continue
            if committed is None:
                self._update_interface(session, now)
            else:
                rate = client.contract.stream_rate_bps
                if session.interface is not None:
                    committed[session.interface] -= rate
                self._update_interface(session, now, committed)
                committed[session.interface] = (
                    committed.get(session.interface, 0.0) + rate
                )
            if session.backlog_bytes <= 0:
                continue
            space = client.buffer_space_bytes()
            if space <= 0:
                continue
            burst = min(session.backlog_bytes, space)
            # Urgency horizon covers the scheduling quantum plus the time
            # the burst itself will take (wake + transfer), so a client is
            # requested early enough to be served before it underruns.
            interface = client.interfaces[session.interface]
            service_s = interface.wake_overhead_s() + interface.transfer_duration_s(
                burst
            )
            deadline = now + client.time_until_underrun_s() - self.deadline_safety_s
            urgent = (
                not client.playout.playing
                or deadline - now < 2 * self.epoch_s + service_s
            )
            if burst < self.min_burst_bytes and not urgent:
                continue  # let the backlog grow into a worthwhile burst
            if client.battery is not None:
                client.contract.battery_level = client.battery.state_of_charge
            requests.append(
                BurstRequest(
                    client=client.name,
                    nbytes=burst,
                    deadline_s=deadline if deadline > now else now,
                    weight=client.contract.weight,
                    rate_bps=client.contract.stream_rate_bps,
                    arrival_s=now,
                    battery_level=client.contract.battery_level,
                )
            )
        return requests

    def _update_interface(
        self,
        session: ClientSession,
        now: float,
        committed_bps: Optional[Dict[str, float]] = None,
    ) -> None:
        chosen = self.interface_policy.select(
            session.client, now, committed_bps
        )
        if chosen != session.interface:
            bus = self.sim.trace
            if bus.enabled:
                bus.emit(
                    "core",
                    session.client.name,
                    "switchover",
                    previous=session.interface,
                    interface=chosen,
                )
            if session.interface is not None:
                session.switchovers += 1
            session.interface = chosen
            session.interface_log.append((now, chosen))

    def _serve_channel(self, channel: str, requests: List[BurstRequest]):
        for request in requests:
            session = self.sessions.get(request.client)
            if session is None:
                continue  # the client roamed to another cell mid-round
            if session.paused or session.interface is None:
                continue  # the client churned away since the round started
            # Re-clamp to the space left when the burst actually starts.
            space = session.client.buffer_space_bytes()
            nbytes = min(request.nbytes, session.backlog_bytes, space)
            if nbytes <= 0:
                continue
            bus = self.sim.trace
            if bus.enabled:
                # Pre-playback deadlines are infinite; emit None so the
                # JSONL trace stays strictly valid JSON.
                finite = request.deadline_s != float("inf")
                bus.emit(
                    "core",
                    request.client,
                    "grant",
                    interface=session.interface,
                    nbytes=nbytes,
                    deadline_s=request.deadline_s if finite else None,
                    slack_s=(
                        request.deadline_s - self.sim.now if finite else None
                    ),
                )
            # The client reports how much actually landed: a burst on an
            # interface a fault killed mid-round delivers zero, the
            # backlog stays, and the next round's selection re-schedules
            # it on the surviving interface.
            delivered = yield session.client.execute_burst(
                session.interface, nbytes
            )
            if not delivered:
                session.bursts_failed += 1
                continue
            session.backlog_bytes -= delivered
            session.bursts_served += 1
            session.bytes_served += delivered
            self.bursts_served += 1
            self.bytes_served += delivered

    def __repr__(self) -> str:
        return (
            f"<HotspotServer {self.scheduler.name} clients={len(self.sessions)} "
            f"bursts={self.bursts_served}>"
        )
