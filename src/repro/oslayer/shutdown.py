"""Dynamic power management: when should the OS turn the WNIC off?

The OS sees only request arrivals (packets, I/O), not application intent,
so it must *predict* idle periods.  Sleeping pays off only when the idle
period exceeds the **break-even time**

    T_be = E_transition / (P_on - P_sleep)

(the energy spent entering+leaving the sleep state, amortised against the
power saved while asleep).  Policies differ in how they guess whether the
current idle period will exceed T_be:

- :class:`AlwaysOnPolicy` — never sleep (the baseline);
- :class:`FixedTimeoutPolicy` — sleep after a constant idle timeout (the
  ubiquitous approach; a timeout equal to T_be is 2-competitive);
- :class:`AdaptiveTimeoutPolicy` — grow the timeout after premature
  sleeps, shrink it after missed opportunities;
- :class:`PredictiveEwmaPolicy` — Hwang/Wu style: predict the next idle
  period as an exponential average of past ones and sleep *immediately*
  when the prediction clears the break-even threshold.

:class:`DevicePowerManager` executes a policy against a stream of
requests, pays real wake-up latencies from the radio model, and accounts
the latency penalty each late wake-up adds to requests.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.phy.radio import Radio
from repro.sim.events import Event, FirstOf

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


def break_even_time_s(radio: Radio, awake_state: str, sleep_state: str) -> float:
    """Idle time above which sleeping saves energy for this radio."""
    model = radio.model
    power_saved = model.power(awake_state) - model.power(sleep_state)
    if power_saved <= 0:
        return float("inf")
    down = model.transition(awake_state, sleep_state)
    up = model.transition(sleep_state, awake_state)
    transition_energy = down.energy_j + up.energy_j
    # During the transitions the device is not saving the full delta, so
    # count their duration at awake power as additional cost.
    transition_penalty = (down.latency_s + up.latency_s) * model.power(sleep_state)
    return (transition_energy + transition_penalty) / power_saved


class ShutdownPolicy:
    """Base policy interface."""

    def sleep_delay_s(self, now: float) -> Optional[float]:
        """How long to stay idle (from ``now``) before sleeping.

        ``None`` means never sleep in this idle period.
        """
        raise NotImplementedError

    def observe_idle_period(self, idle_s: float) -> None:
        """Called with the full length of each completed idle period."""


class AlwaysOnPolicy(ShutdownPolicy):
    """Never sleep — the baseline the survey says wastes listen power."""

    def sleep_delay_s(self, now: float) -> Optional[float]:
        return None


class OraclePolicy(ShutdownPolicy):
    """Clairvoyant offline policy: knows the request schedule in advance.

    Sleeps immediately iff the time until the next request exceeds the
    break-even time.  Unrealisable in practice (it reads the future), but
    it is the offline optimum online policies are judged against: a fixed
    timeout equal to the break-even time is classically 2-competitive
    with this oracle.

    Parameters
    ----------
    request_times_s:
        Absolute arrival times of every future request; after the last
        one the idle is treated as unbounded (sleep).
    break_even_s:
        The device's break-even time.
    """

    def __init__(self, request_times_s: List[float], break_even_s: float) -> None:
        if break_even_s <= 0:
            raise ValueError("break-even must be positive")
        self._request_times = sorted(request_times_s)
        self.break_even_s = break_even_s

    def sleep_delay_s(self, now: float) -> Optional[float]:
        index = bisect.bisect_right(self._request_times, now + 1e-12)
        if index >= len(self._request_times):
            return 0.0  # nothing else is coming: sleep forever
        idle_remaining = self._request_times[index] - now
        return 0.0 if idle_remaining > self.break_even_s else None


class FixedTimeoutPolicy(ShutdownPolicy):
    """Sleep after a constant idle timeout."""

    def __init__(self, timeout_s: float) -> None:
        if timeout_s < 0:
            raise ValueError("timeout must be >= 0")
        self.timeout_s = timeout_s

    def sleep_delay_s(self, now: float) -> Optional[float]:
        return self.timeout_s


class AdaptiveTimeoutPolicy(ShutdownPolicy):
    """Double the timeout after premature sleeps, shrink it otherwise.

    A sleep was premature when the idle period barely exceeded the
    timeout (the device was woken again soon after dozing off); it was
    conservative when the idle period far exceeded it.

    Parameters
    ----------
    initial_s, min_s, max_s:
        Timeout and its bounds.
    break_even_s:
        Reference scale separating "short" from "long" idle periods.
    """

    def __init__(
        self,
        initial_s: float,
        break_even_s: float,
        min_s: float = 0.001,
        max_s: float = 30.0,
    ) -> None:
        if not min_s <= initial_s <= max_s:
            raise ValueError("need min <= initial <= max")
        if break_even_s <= 0:
            raise ValueError("break-even must be positive")
        self.timeout_s = initial_s
        self.break_even_s = break_even_s
        self.min_s = min_s
        self.max_s = max_s

    def sleep_delay_s(self, now: float) -> Optional[float]:
        return self.timeout_s

    def observe_idle_period(self, idle_s: float) -> None:
        if idle_s < self.timeout_s + self.break_even_s:
            # Sleeping (or almost sleeping) here would not have paid off.
            self.timeout_s = min(self.timeout_s * 2.0, self.max_s)
        else:
            self.timeout_s = max(self.timeout_s * 0.5, self.min_s)


class PredictiveEwmaPolicy(ShutdownPolicy):
    """Predict the next idle period by exponential averaging.

    Sleep immediately (zero timeout) when the predicted idle period
    exceeds the break-even threshold; otherwise do not sleep at all.
    This recovers the saved idle power with no timeout slack, but pays
    for every misprediction with a wake-up.
    """

    def __init__(
        self, break_even_s: float, smoothing: float = 0.5, initial_prediction_s: float = 0.0
    ) -> None:
        if break_even_s <= 0:
            raise ValueError("break-even must be positive")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.break_even_s = break_even_s
        self.smoothing = smoothing
        self.prediction_s = initial_prediction_s

    def sleep_delay_s(self, now: float) -> Optional[float]:
        return 0.0 if self.prediction_s > self.break_even_s else None

    def observe_idle_period(self, idle_s: float) -> None:
        self.prediction_s += self.smoothing * (idle_s - self.prediction_s)


@dataclass
class PowerManagerStats:
    """Outcomes of a DPM run."""

    requests: int = 0
    sleeps: int = 0
    wakeups_on_demand: int = 0
    added_latency_s: float = 0.0
    idle_periods: List[float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.idle_periods is None:
            self.idle_periods = []


class DevicePowerManager:
    """Runs a shutdown policy for one radio against a request stream.

    Requests are submitted via :meth:`submit`; each occupies the device
    for ``service_s``.  Between requests the policy decides whether and
    when to sleep.  A request arriving while asleep pays the wake-up
    latency, which is recorded as added latency.

    Parameters
    ----------
    radio:
        The managed device.
    policy:
        Shutdown policy instance.
    awake_state / sleep_state:
        Radio state names for serving and sleeping.
    """

    def __init__(
        self,
        sim: "Simulator",
        radio: Radio,
        policy: ShutdownPolicy,
        awake_state: str = "idle",
        sleep_state: str = "off",
    ) -> None:
        radio.model._require(awake_state)
        radio.model._require(sleep_state)
        self.sim = sim
        self.radio = radio
        self.policy = policy
        self.awake_state = awake_state
        self.sleep_state = sleep_state
        self.stats = PowerManagerStats()
        self._pending: List[tuple[float, float, Event]] = []
        self._arrival_event: Optional[Event] = None
        self._idle_since: Optional[float] = sim.now
        sim.process(self._manager_loop(), name="dpm")

    @property
    def break_even_s(self) -> float:
        return break_even_time_s(self.radio, self.awake_state, self.sleep_state)

    def submit(self, service_s: float = 0.001) -> Event:
        """A request arrives now; the event fires when it has been served."""
        if service_s < 0:
            raise ValueError("service time must be >= 0")
        done = Event(self.sim)
        self.stats.requests += 1
        self._pending.append((self.sim.now, service_s, done))
        if self._arrival_event is not None and not self._arrival_event.triggered:
            pending, self._arrival_event = self._arrival_event, None
            pending.succeed()
        return done

    def _manager_loop(self):
        while True:
            if not self._pending:
                yield from self._idle_phase()
            # Serve everything that has accumulated.
            while self._pending:
                arrived, service_s, done = self._pending.pop(0)
                if self.radio.state != self.awake_state:
                    self.stats.wakeups_on_demand += 1
                    yield self.radio.transition_to(self.awake_state)
                delay = self.sim.now - arrived
                if delay > 0:
                    self.stats.added_latency_s += delay
                if service_s > 0:
                    yield self.sim.timeout(service_s)
                done.succeed()

    def _idle_phase(self):
        """Wait for the next request, possibly sleeping along the way."""
        idle_start = self.sim.now
        delay = self.policy.sleep_delay_s(self.sim.now)
        arrival = self._new_arrival_event()
        if delay is not None:
            if delay > 0:
                timer = self.sim.timeout(delay)
                yield FirstOf(self.sim, arrival, timer)
            if not self._pending:
                # Still idle after the timeout: sleep.
                self.stats.sleeps += 1
                yield self.radio.transition_to(self.sleep_state)
                if not self._pending:
                    arrival = self._new_arrival_event()
                    yield arrival
        else:
            yield arrival
        self.stats.idle_periods.append(self.sim.now - idle_start)
        self.policy.observe_idle_period(self.sim.now - idle_start)

    def _new_arrival_event(self) -> Event:
        self._arrival_event = Event(self.sim)
        return self._arrival_event
