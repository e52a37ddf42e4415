"""The client resource manager's view of one wireless interface.

The Hotspot operates *"at a much higher level of abstraction"* than the
MAC: it thinks in bursts, effective goodput and per-burst wake overhead.
:class:`ManagedInterface` wraps a :class:`~repro.phy.radio.Radio` into
exactly that view: ``wake()``, ``transfer(nbytes)``, ``sleep()``, plus a
link-quality signal the server's interface-selection policy thresholds.

The effective rates default to what the full MAC simulations in
:mod:`repro.mac` actually achieve (802.11b at 11 Mb/s delivers ~5 Mb/s
of payload after DCF overhead; Bluetooth DH5 ~0.61 Mb/s), keeping the
burst-level abstraction honest against the packet-level substrate.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional, Tuple

from repro.devices.profiles import (
    BLUETOOTH_ACL_RATE_BPS,
    GPRS_RATE_BPS,
    bluetooth_module,
    gprs_modem,
    wlan_cf_card,
)
from repro.mac.bluetooth import BluetoothLink
from repro.phy.radio import Radio
from repro.sim.events import _PROCESSED, Event, Timeout, chain

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: Link quality signal: ``f(time) -> [0, 1]``.
QualitySignal = Callable[[float], float]


def as_event(sim: "Simulator", step: Callable[..., None], *args: Any, value: Any = None) -> Event:
    """One event for the callback chain ``step(*args, then)``, which
    calls ``then()`` where it ends: already processed if that happens
    during the call, else succeeded then (its waiters resume one
    dispatch on, as from a process's completion)."""
    done = Event(sim)
    returned = False

    def then() -> None:
        if returned:
            done.succeed(value)
        else:
            done._state = _PROCESSED
            done._value = value

    step(*args, then)
    returned = True
    return done


class ManagedInterface:
    """One WNIC under client-resource-manager control.

    Parameters
    ----------
    name:
        Interface name ("wlan", "bluetooth", "gprs", ...).
    radio:
        The underlying power-state machine.
    effective_rate_bps:
        Burst goodput (nominal rate minus MAC/baseband overhead).
    resting_state:
        Awake-but-not-transferring state ("idle" / "connected").
    active_state:
        State during data transfer ("rx" for downlink WLAN, "active").
    sleep_state:
        Between-burst state ("off" for WLAN, "park" for Bluetooth —
        the paper's Figure 1 caption).
    quality:
        Optional link-quality signal for interface selection.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        radio: Radio,
        effective_rate_bps: float,
        resting_state: str,
        active_state: str,
        sleep_state: str,
        quality: Optional[QualitySignal] = None,
    ) -> None:
        if effective_rate_bps <= 0:
            raise ValueError("effective rate must be positive")
        for state in (resting_state, active_state, sleep_state):
            radio.model._require(state)
        self.sim = sim
        self.name = name
        self.radio = radio
        self.effective_rate_bps = effective_rate_bps
        self.resting_state = resting_state
        self.active_state = active_state
        self.sleep_state = sleep_state
        self.quality = quality
        self.bytes_transferred = 0
        self.bursts = 0
        #: False while a fault holds the hardware down; dead interfaces
        #: report zero link quality and refuse bursts, which is what the
        #: resource manager keys its failover on.
        self.alive = True
        #: Multiplier an interference burst applies to the quality signal.
        self.quality_scale = 1.0
        self.outages = 0
        #: (time, event) log of fail/revive edges for post-run analysis.
        self.outage_log: list = []
        #: ``(target state, continuation)`` of the command holding the
        #: interface, then of those waiting for it in FIFO order.
        self._commands: Deque[Tuple[str, Callable[[], None]]] = deque()

    # -- queries ----------------------------------------------------------

    @property
    def is_asleep(self) -> bool:
        return self.radio.state == self.sleep_state and not self.radio.in_transition

    @property
    def is_awake(self) -> bool:
        return self.radio.state in (self.resting_state, self.active_state) and (
            not self.radio.in_transition
        )

    def quality_at(self, time_s: float) -> float:
        """Link quality now (1.0 when no signal is configured).

        A dead interface reports 0.0 regardless of its signal, and any
        active interference scales the healthy value down — both feed the
        server's selection policy, which is how failover happens without
        the policy knowing about faults at all.
        """
        if not self.alive:
            return 0.0
        base = self.quality(time_s) if self.quality is not None else 1.0
        return max(0.0, min(1.0, base * self.quality_scale))

    # -- fault hooks -------------------------------------------------------

    def fail(self) -> None:
        """Hardware death: zero quality, bursts abort until :meth:`revive`.

        An in-flight transfer is allowed to finish (the radio state
        machine always completes its wake/transfer/sleep sequence), but
        any burst *started* while dead delivers nothing.
        """
        if not self.alive:
            return
        self.alive = False
        self.outages += 1
        self.outage_log.append((self.sim.now, "fail"))

    def revive(self) -> None:
        """The hardware came back; selection may pick it again."""
        if self.alive:
            return
        self.alive = True
        self.outage_log.append((self.sim.now, "revive"))

    def transfer_duration_s(self, nbytes: int) -> float:
        if nbytes < 0:
            raise ValueError("byte count must be >= 0")
        return nbytes * 8.0 / self.effective_rate_bps

    def wake_overhead_s(self) -> float:
        """Latency to come out of the sleep state."""
        return self.radio.model.transition(self.sleep_state, self.resting_state).latency_s

    def burst_overhead_s(self) -> float:
        """Fixed wake + re-sleep time a burst pays around its transfer."""
        down = self.radio.model.transition(self.resting_state, self.sleep_state)
        return self.wake_overhead_s() + down.latency_s

    # -- control: each command returns one event to yield on -------------------

    def wake(self) -> Event:
        """Bring the radio to the resting state."""
        return as_event(self.sim, self._goto, self.resting_state)

    def sleep(self) -> Event:
        """Drop the radio to the between-burst sleep state."""
        return as_event(self.sim, self._goto, self.sleep_state)

    def transfer(self, nbytes: int) -> Event:
        """Receive a burst: active state for the transfer duration.

        The interface must be awake (the caller sequences wake/transfer/
        sleep); the event's value is the transfer duration.
        """
        duration = self.transfer_duration_s(nbytes)
        return as_event(self.sim, self._transfer, nbytes, value=duration)

    # The commands as callback chains: each step runs in the callback of
    # the radio transition or timer it waits on.

    def _goto(self, target: str, then: Callable[[], None]) -> None:
        """Take the interface (after the commands already holding or
        waiting for it), move the radio to ``target``, let go, then
        ``then()``: two concurrent commands never race the radio's
        single transition slot."""
        self._commands.append((target, then))
        if len(self._commands) == 1:
            self._drive()

    def _drive(self, _event: Optional[Event] = None) -> None:
        target = self._commands[0][0]
        radio = self.radio
        if radio.in_transition:  # moved by something outside this interface
            Timeout(self.sim, 0.0005).callbacks.append(self._drive)
        elif radio.state != target:
            chain(radio.transition_to(target), self._release)
        else:
            self._release()

    def _release(self, _event: Optional[Event] = None) -> None:
        # The next waiter takes the interface before the holder's
        # continuation runs: a command waiting since earlier acts first.
        then = self._commands.popleft()[1]
        if self._commands:
            self._drive()
        then()

    def _transfer(self, nbytes: int, then: Callable[[], None]) -> None:
        """Active state for the transfer duration, back to resting, then
        ``then()``."""
        duration = self.transfer_duration_s(nbytes)

        def transferred() -> None:
            self.bytes_transferred += nbytes
            self.bursts += 1
            then()

        def rest(_timer: Optional[Event] = None) -> None:
            self._goto(self.resting_state, transferred)

        def active() -> None:
            if duration > 0:
                Timeout(self.sim, duration).callbacks.append(rest)
            else:
                rest()

        self._goto(self.active_state, active)

    def __repr__(self) -> str:
        return f"<ManagedInterface {self.name!r} state={self.radio.state!r}>"


#: Effective WLAN goodput at 11 Mb/s: the repro.mac DCF simulation
#: saturates at ~6.0 Mb/s of MAC payload with 1472-byte frames
#: (tests/integration/test_calibration.py); minus ~8 % transport-header
#: overhead that burst payloads carry, the Hotspot sees ~5.5 Mb/s.
WLAN_EFFECTIVE_RATE_BPS = 5.5e6

#: Effective Bluetooth DH5 goodput after baseband overhead.
BLUETOOTH_EFFECTIVE_RATE_BPS = BLUETOOTH_ACL_RATE_BPS * 0.85


def wlan_interface(
    sim: "Simulator",
    name: str = "wlan",
    quality: Optional[QualitySignal] = None,
    effective_rate_bps: float = WLAN_EFFECTIVE_RATE_BPS,
) -> ManagedInterface:
    """A WLAN CF-card interface: off between bursts, rx during them."""
    radio = Radio(sim, wlan_cf_card(), name=name)
    return ManagedInterface(
        sim,
        name,
        radio,
        effective_rate_bps=effective_rate_bps,
        resting_state="idle",
        active_state="rx",
        sleep_state="off",
        quality=quality,
    )


def bluetooth_interface(
    sim: "Simulator",
    name: str = "bluetooth",
    quality: Optional[QualitySignal] = None,
    effective_rate_bps: float = BLUETOOTH_EFFECTIVE_RATE_BPS,
    with_park_beacons: bool = True,
) -> ManagedInterface:
    """A Bluetooth interface: parked between bursts, active during them.

    When ``with_park_beacons`` is set, the periodic park-beacon listens
    are charged via a :class:`~repro.mac.bluetooth.BluetoothLink` sharing
    the same radio.
    """
    radio = Radio(sim, bluetooth_module(), name=name)
    if with_park_beacons:
        BluetoothLink(sim, radio)  # its beacon loop charges park listens
    return ManagedInterface(
        sim,
        name,
        radio,
        effective_rate_bps=effective_rate_bps,
        resting_state="connected",
        active_state="active",
        sleep_state="park",
        quality=quality,
    )


#: Effective GPRS goodput (CS-2 coding, protocol overhead).
GPRS_EFFECTIVE_RATE_BPS = GPRS_RATE_BPS * 0.8


def gprs_interface(
    sim: "Simulator",
    name: str = "gprs",
    quality: Optional[QualitySignal] = None,
    effective_rate_bps: float = GPRS_EFFECTIVE_RATE_BPS,
) -> ManagedInterface:
    """A GPRS interface: standby between bursts, transfer during them.

    Slow but with a very frugal standby — the wide-area fallback in the
    paper's heterogeneous-interface scenario ("mobiles themselves support
    multiple wireless interfaces, such as WLAN and GPRS").
    """
    radio = Radio(sim, gprs_modem(), name=name)
    return ManagedInterface(
        sim,
        name,
        radio,
        effective_rate_bps=effective_rate_bps,
        resting_state="ready",
        active_state="transfer",
        sleep_state="standby",
        quality=quality,
    )
