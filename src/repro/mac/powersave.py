"""Pluggable power-management policies for 802.11 stations.

The paper surveys *techniques* (plural) for WLAN power saving, but the
MAC layer used to hard-wire exactly one of them — 802.11 PSM — into
:class:`~repro.mac.psm.PsmStation`.  This module turns the doze/wake
decision into a *policy seam*: every station-side sleep decision routes
through an installed :class:`PowerPolicy`, so PSM, μNap micro-sleeps and
the CAM (constantly-awake) baseline are interchangeable ~100-line
policies rather than forks of the station code.

Policies implement a small hook contract (see :class:`PowerPolicy`):

- ``on_beacon`` / ``on_tim_hit`` / ``on_tim_miss`` — beacon/TIM events
  from the PSM machinery;
- ``on_nav_set`` — the station overheard a reservation (an RTS/CTS
  duration field, or the implicit SIFS+ACK tail of a foreign data
  frame): the medium is spoken for until the given time;
- ``on_exchange_end`` — the station's own frame exchange completed;
- ``sleep_opportunity(now)`` — pure query: may the radio sleep *right
  now*, and until when?  Returns ``(doze_until, state)`` or ``None``.

Determinism rules (pinned by the golden-equivalence tests):

- Hooks are invoked synchronously from the station's existing event
  cascade and create no process.  The one event a hook may schedule is
  μNap's zero-delay nap kick, queued behind everything already due in
  the instant; its callback re-checks and runs the nap as a callback
  chain.  Anything longer-lived is a driver process (PSM's cycles).
- :class:`StaticPsmPolicy` reproduces the historical ``PsmStation``
  sleep/wake loop *byte-identically* — its ``cycles`` generator is the
  verbatim event sequence the checked-in goldens pin.
- Policy dispatch stays off the DCF hot path: a station without a
  policy (``power_policy=None``) takes exactly the pre-seam code path,
  and the backoff countdown in ``DcfStation._contention`` never
  consults the policy.

μNap (:class:`MicroNapPolicy`) follows Azcorra et al., *μNap: Practical
micro-sleeps for 802.11 WLANs* (PAPERS.md): a station that overhears a
reservation for somebody else cannot use the medium anyway, so it drops
the radio into doze for the reservation remainder minus the doze→idle
wake-up time.  The published timing constraint is honoured structurally:
a nap is only taken when the opportunity window exceeds both the
sleep+wake transition round-trip and the energy break-even point implied
by the card's transition costs (μNap's measured transition overheads are
of the order of tens to hundreds of microseconds — see
``repro.devices.profiles.unap_wlan_card``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.sim.events import Event
from repro.sim.events import Timeout as _Timeout
from repro.sim.events import chain

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.dcf import DcfStation
    from repro.mac.frames import Frame
    from repro.phy.radio import Radio

#: What ``sleep_opportunity`` returns: sleep in ``state`` until
#: ``doze_until`` (the policy has already budgeted the wake transition).
SleepPlan = Tuple[float, str]


class PowerPolicy:
    """Base power policy: the hook contract, with no-op defaults.

    Subclasses override the hooks they care about.  The base class *is*
    the CAM baseline — it never sleeps — and doubles as the protocol
    documentation; stations accept any object with these methods.
    """

    #: Registry name; also used in labels and reports.
    name = "cam"

    def __init__(self) -> None:
        self.station: Optional["DcfStation"] = None

    # -- lifecycle -----------------------------------------------------

    def bind(self, station: "DcfStation") -> None:
        """Attach to a station.  Called once, at station construction."""
        if self.station is not None:
            raise RuntimeError(
                f"policy {self.name!r} is already bound to "
                f"{self.station.address!r}"
            )
        self.station = station

    @property
    def radio(self) -> Optional["Radio"]:
        return self.station.radio if self.station is not None else None

    # -- hooks (synchronous; none spawns a process) ---------------------

    def on_beacon(self, frame: "Frame") -> None:
        """A beacon was received (whatever the TIM says)."""

    def on_tim_hit(self, tim) -> None:
        """The received TIM names this station."""

    def on_tim_miss(self, tim) -> None:
        """A beacon cycle ended without buffered traffic (or timed out)."""

    def on_nav_set(self, nav_until: float, frame: "Frame") -> None:
        """An overheard frame reserved the medium until ``nav_until``."""

    def on_exchange_end(self, now: float) -> None:
        """The station's own frame exchange (success or drop) finished."""

    def sleep_opportunity(self, now: float) -> Optional[SleepPlan]:
        """May the radio sleep right now?  ``(doze_until, state)`` or None."""
        return None


#: Back-compat alias making the baseline's role explicit in presets.
CamPolicy = PowerPolicy


class StaticPsmPolicy(PowerPolicy):
    """Standard 802.11 PSM: doze between beacons, PS-Poll on TIM hits.

    This is the historical ``PsmStation._power_save_cycles`` loop moved
    behind the policy seam.  The event sequence (including every yield,
    trace emission and ``sim._now`` read) is preserved verbatim — the
    golden-equivalence tests require byte-identical summary records.
    """

    name = "psm"

    def cycles(self, st):
        """The PSM sleep/wake loop, driven by the station's process.

        ``st`` is the owning :class:`~repro.mac.psm.PsmStation`; its
        config, radio, and beacon/poll helpers are used in exactly the
        order the pre-seam implementation did.
        """
        timing = st.timing
        psm = st.psm
        interval = timing.beacon_interval_s * psm.listen_interval
        wake_number = 0
        yield st.radio.transition_to("doze")
        while True:
            st.doze_cycles += 1
            # Skip past any beacon times that already elapsed (e.g. after a
            # poll session longer than one beacon interval).
            wake_number = max(wake_number + 1, int(st.sim.now / interval) + 1)
            # Sleep until just before the next target beacon time.
            wake_at = wake_number * interval - psm.wake_guard_s
            if wake_at > st.sim._now:
                yield _Timeout(st.sim, wake_at - st.sim._now)
            yield st.radio.transition_to("idle")
            tim = yield from st._await_beacon()
            if tim is not None and st.address in tim:
                self.on_tim_hit(tim)
                bus = st.sim.trace
                if bus.enabled:
                    bus.emit(
                        "mac",
                        st.address,
                        "tim-wake",
                        cycle=st.doze_cycles,
                        tim_size=len(tim),
                    )
                yield from st._drain_ap_buffer()
            else:
                self.on_tim_miss(tim)
            # Uplink frames queued while dozing go out in this window, and
            # in-flight ACKs/retries must finish before the radio sleeps.
            while not st.mac_quiescent:
                yield _Timeout(st.sim, timing.slot_s)
            yield st.radio.transition_to("doze")

    def sleep_opportunity(self, now: float) -> Optional[SleepPlan]:
        """Informational: doze until just before the next listened TBTT."""
        st = self.station
        if st is None:
            return None
        interval = st.timing.beacon_interval_s * st.psm.listen_interval
        next_wake = (int(now / interval) + 1) * interval - st.psm.wake_guard_s
        if next_wake <= now:
            return None
        return (next_wake, "doze")


class MicroNapPolicy(PowerPolicy):
    """μNap: doze through overheard reservations and inter-frame dead time.

    Opportunity sources (both arrive via :meth:`on_nav_set`):

    - explicit NAV reservations — overheard RTS/CTS duration fields;
    - the implicit SIFS + ACK tail of a foreign data frame (802.11
      duration semantics the simulator does not put on plain data
      frames, computed receiver-side by the DCF hook).

    Timing constraints, per the μNap paper: the nap window must cover
    the idle→doze and doze→idle transitions *and* beat the energy
    break-even point; the wake transition is budgeted so the radio is
    listening again the instant the reservation expires.  Naps are only
    taken from a settled idle radio with a quiescent MAC — a station
    that owes the air an ACK or has frames queued stays awake.

    Parameters
    ----------
    min_nap_s:
        Explicit floor on the opportunity window; ``None`` derives the
        break-even from the bound radio's power model at bind time.
    guard_s:
        Extra margin added to the derived floor (a conservative stance
        against scheduling jitter, default none).
    """

    name = "unap"

    def __init__(
        self, min_nap_s: Optional[float] = None, guard_s: float = 0.0
    ) -> None:
        super().__init__()
        if guard_s < 0:
            raise ValueError("guard must be >= 0")
        self._explicit_min_nap_s = min_nap_s
        self.guard_s = guard_s
        self.min_nap_s = min_nap_s if min_nap_s is not None else float("inf")
        self._sleep_latency_s = 0.0
        self._wake_latency_s = 0.0
        self._reservation_until = 0.0
        self._napping = False
        # Evidence counters (surfaced in scenario extras).
        self.naps = 0
        self.napped_s = 0.0
        self.naps_declined = 0

    def bind(self, station: "DcfStation") -> None:
        super().bind(station)
        radio = station.radio
        if radio is None:
            raise ValueError("MicroNapPolicy requires a station with a radio")
        model = radio.model
        model._require("idle")
        model._require("doze")
        down = model.transition("idle", "doze")
        up = model.transition("doze", "idle")
        self._sleep_latency_s = down.latency_s
        self._wake_latency_s = up.latency_s
        if self._explicit_min_nap_s is None:
            self.min_nap_s = self._break_even_s(model, down, up) + self.guard_s

    def _break_even_s(self, model, down, up) -> float:
        """Smallest window where napping beats staying idle.

        A nap over a window ``T`` costs ``E_down + E_up +
        P_doze * (T - L_down - L_up)`` against ``P_idle * T`` for
        staying awake; the window must also physically fit both
        transitions.  This is the μNap timing constraint expressed in
        the card's own numbers.
        """
        p_idle = model.power("idle")
        p_doze = model.power("doze")
        roundtrip_s = down.latency_s + up.latency_s
        saving_rate = p_idle - p_doze
        if saving_rate <= 0:
            return float("inf")
        overhead_j = down.energy_j + up.energy_j - p_doze * roundtrip_s
        return max(roundtrip_s, overhead_j / saving_rate)

    # -- hooks -----------------------------------------------------------

    def on_nav_set(self, nav_until: float, frame: "Frame") -> None:
        if nav_until > self._reservation_until:
            self._reservation_until = nav_until
        self._maybe_nap()

    def on_exchange_end(self, now: float) -> None:
        # A reservation observed mid-exchange may still have usable
        # remainder once our own ACK business is done.
        self._maybe_nap()

    def sleep_opportunity(self, now: float) -> Optional[SleepPlan]:
        st = self.station
        if st is None or self._napping:
            return None
        window_s = self._reservation_until - now
        if window_s < self.min_nap_s:
            return None
        radio = st.radio
        if radio.in_transition or radio.state != "idle":
            return None
        if not st.mac_quiescent:
            return None
        return (self._reservation_until - self._wake_latency_s, "doze")

    # -- the nap driver ---------------------------------------------------

    def _maybe_nap(self) -> None:
        st = self.station
        if st is None or self._napping:
            return
        plan = self.sleep_opportunity(st.sim.now)
        if plan is None:
            self.naps_declined += 1
            return
        self._napping = True
        # A zero-delay kick, not a direct start: traffic that lands later
        # in this instant is in place before the nap re-checks.
        kick = Event(st.sim)
        kick.callbacks.append(lambda _kick: self._nap(*plan))
        kick.succeed()

    def _nap(self, doze_until: float, state: str) -> None:
        """Re-check, doze, sleep until ``doze_until``, wake: a chain of
        callbacks, each run where a nap process would have resumed.
        ``_napping`` clears where the chain ends, declined or woken."""
        st = self.station
        sim = st.sim
        radio = st.radio
        # Conditions may have shifted since the kick was armed
        # (same-timestamp traffic arrivals); re-check before sleeping.
        if (
            radio.in_transition
            or radio.state != "idle"
            or not st.mac_quiescent
            or doze_until - sim.now < self._wake_latency_s
        ):
            self._napping = False
            return

        def dozing(_event: Event) -> None:
            dozed_from = sim.now
            transitions = radio.transition_count
            dozed_before = radio.time_in_state(state)

            def woke(_timer: Optional[Event] = None) -> None:
                if radio.transition_count == transitions:
                    self.napped_s += sim.now - dozed_from
                else:  # a frame sent mid-nap woke the radio early
                    self.napped_s += radio.time_in_state(state) - dozed_before
                settle()

            if doze_until > sim.now:
                _Timeout(sim, doze_until - sim.now).callbacks.append(woke)
            else:
                woke()

        def settle(_timer: Optional[Event] = None) -> None:
            # A frame queued mid-nap drives the radio through tx and
            # leaves it idle (``_on_air``); settle before waking so
            # transition_to never fires mid-transition.
            if radio.in_transition:
                _Timeout(sim, st.timing.slot_s).callbacks.append(settle)
            elif radio.state == state:
                chain(radio.transition_to("idle"), woken)
            else:
                woken()

        def woken(_event: Optional[Event] = None) -> None:
            self.naps += 1
            self._napping = False

        chain(radio.transition_to(state), dozing)


# -- registry ------------------------------------------------------------

PolicyFactory = Callable[..., PowerPolicy]

_POWER_POLICIES: Dict[str, PolicyFactory] = {}


def register_power_policy(name: str, factory: PolicyFactory) -> None:
    """Register a policy factory (idempotent for the same factory)."""
    existing = _POWER_POLICIES.get(name)
    if existing is not None and existing is not factory:
        raise ValueError(f"power policy {name!r} already registered")
    _POWER_POLICIES[name] = factory


def power_policy_names() -> List[str]:
    return sorted(_POWER_POLICIES)


register_power_policy("cam", CamPolicy)  # the radio never sleeps
register_power_policy("psm", StaticPsmPolicy)  # doze between beacons
register_power_policy("unap", MicroNapPolicy)  # doze through others' NAV
