"""Test-only reference: SIFS responses and μNap naps as processes.

``DcfStation`` sends its ACKs and CTSs, and ``MicroNapPolicy`` takes its
naps, as chains of callbacks: a SIFS timer whose callback drives the
radio and the medium, and a zero-delay kick whose callback re-checks,
dozes, sleeps and wakes.  Before that each response and each nap was
a generator run as a one-shot ``Process``.  Those generators are kept
here as the oracle the property tests in ``test_response_chains.py``
compare the chains against.

A process costs two kernel events the chain does not have: its
bootstrap and its completion.  The reference raises ``_pending_acks``
at the call, as the chain does.  The processes these bodies came from
raised it at their bootstrap, one dispatch later, so a nap kicked
earlier in that instant could doze while the ACK was owed.
"""

from __future__ import annotations

from repro.mac import DcfStation
from repro.mac.frames import Frame, FrameKind
from repro.mac.powersave import MicroNapPolicy
from repro.sim.events import Timeout as _Timeout


def response_body(self, frame: Frame):
    """Wait a SIFS and put ``frame`` on the air (the ack/cts body)."""
    try:
        yield self.sim.timeout(self.timing.sifs_s)
        yield from self._on_air(frame)
    finally:
        self._pending_acks -= 1


class ProcessResponseDcfStation(DcfStation):
    """A :class:`DcfStation` that sends each ACK and CTS from a process."""

    def _send_cts(self, rts_frame: Frame) -> None:
        remaining = max(
            rts_frame.nav_duration_s
            - self.timing.sifs_s
            - self.timing.cts_airtime_s(),
            0.0,
        )
        cts = Frame(
            kind=FrameKind.CTS,
            source=self.address,
            destination=rts_frame.source,
            nav_duration_s=remaining,
        )
        self._pending_acks += 1
        self.sim.process(response_body(self, cts), name=f"cts:{self.address}")

    def _send_ack(self, data_frame: Frame) -> None:
        ack = Frame(
            kind=FrameKind.ACK,
            source=self.address,
            destination=data_frame.source,
        )
        self._pending_acks += 1
        self.sim.process(response_body(self, ack), name=f"ack:{self.address}")


class ProcessNapPolicy(MicroNapPolicy):
    """A :class:`MicroNapPolicy` that takes each nap in a process."""

    def _maybe_nap(self) -> None:
        st = self.station
        if st is None or self._napping:
            return
        plan = self.sleep_opportunity(st.sim.now)
        if plan is None:
            self.naps_declined += 1
            return
        doze_until, state = plan
        self._napping = True
        st.sim.process(
            self._nap_body(doze_until, state), name=f"nap:{st.address}"
        )

    def _nap_body(self, doze_until: float, state: str):
        st = self.station
        sim = st.sim
        radio = st.radio
        try:
            # Conditions may have shifted between scheduling and running
            # (same-timestamp traffic arrivals); re-check before sleeping.
            if (
                radio.in_transition
                or radio.state != "idle"
                or not st.mac_quiescent
                or doze_until - sim.now < self._wake_latency_s
            ):
                return
            yield radio.transition_to(state)
            dozed_from = sim.now
            if doze_until > sim.now:
                yield _Timeout(sim, doze_until - sim.now)
            self.napped_s += sim.now - dozed_from
            # A frame queued mid-nap may briefly drive the radio through
            # tx; settle before waking so transition_to never fires
            # mid-transition.
            while radio.in_transition:
                yield _Timeout(sim, st.timing.slot_s)
            if radio.state == state:
                yield radio.transition_to("idle")
            self.naps += 1
        finally:
            self._napping = False
