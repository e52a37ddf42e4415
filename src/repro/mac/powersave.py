"""μNap: micro-sleeps through other stations' reservations.

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

The policy is the one observer a :class:`~repro.mac.dcf.DcfStation`
takes (``power_policy=``).  The station calls ``on_nav_set`` when it
overhears a reservation and ``on_exchange_end`` when its own exchange
finishes, synchronously and off the backoff countdown.  Neither hook
creates a process: the one event a hook schedules is the zero-delay nap
kick, queued behind everything already due in the instant, whose
callback re-checks and runs the nap as a callback chain.  The policy
draws no randomness.  802.11 PSM's doze/wake loop lives in
:class:`~repro.mac.psm.PsmStation` itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.sim.events import Event
from repro.sim.events import Timeout as _Timeout
from repro.sim.events import chain

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.dcf import DcfStation
    from repro.mac.frames import Frame


class MicroNapPolicy:
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
    that owes the air an ACK or has frames queued stays awake.  The
    floor on the window, ``min_nap_s``, is the bound card's break-even.
    """

    def __init__(self) -> None:
        self.station: Optional["DcfStation"] = None
        #: Shortest window worth a nap; unbound, no window is.
        self.min_nap_s = float("inf")
        self._wake_latency_s = 0.0
        self._reservation_until = 0.0
        self._napping = False
        # Evidence counters (surfaced in scenario extras).
        self.naps = 0
        self.napped_s = 0.0
        self.naps_declined = 0

    def bind(self, station: "DcfStation") -> None:
        """Attach to ``station``; called once, at station construction."""
        if self.station is not None:
            raise RuntimeError(
                f"MicroNapPolicy is already bound to {self.station.address!r}"
            )
        self.station = station
        radio = station.radio
        if radio is None:
            raise ValueError("MicroNapPolicy requires a station with a radio")
        model = radio.model
        model._require("idle")
        model._require("doze")
        down = model.transition("idle", "doze")
        up = model.transition("doze", "idle")
        self._wake_latency_s = up.latency_s
        self.min_nap_s = self._break_even_s(model, down, up)

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

    def sleep_opportunity(self, now: float) -> Optional[Tuple[float, str]]:
        """May the radio nap right now?  ``(doze_until, state)`` or None."""
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
