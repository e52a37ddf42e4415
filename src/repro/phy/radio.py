"""Radio power-state machines with full energy accounting.

A wireless network interface (WNIC) is modelled as a set of named
:class:`PowerState`\\ s (e.g. ``tx``, ``rx``, ``idle``, ``doze``, ``off``
for 802.11; ``active``, ``sniff``, ``hold``, ``park`` for Bluetooth), plus
a table of :class:`Transition`\\ s carrying the latency and energy cost of
moving between states.  :class:`Radio` binds a :class:`RadioPowerModel` to
a simulator and keeps a power trace, so that average power and total
energy — the quantities behind the paper's Figure 2 — fall out of the
time-weighted statistics.

Transition costs matter: the paper's Hotspot scheduler wins precisely
because it amortises expensive wake-ups over large data bursts, and a
model without wake-up costs would overstate the benefit of naive sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.events import _PROCESSED, Event, Timeout
from repro.sim.stats import TimeSeries, TimeWeightedStat

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: Upper bounds (s) of the dwell-duration histogram buckets.  The decade
#: spacing separates μNap-scale micro-dwells (sub-millisecond) from PSM
#: beacon-scale dwells (~100 ms) in one compact table.
DWELL_BUCKETS_S: Tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1)

#: Human-readable labels, one per bucket plus the open-ended tail.
DWELL_BUCKET_LABELS: Tuple[str, ...] = (
    "<100us",
    "<1ms",
    "<10ms",
    "<100ms",
    ">=100ms",
)


def _processed(sim: "Simulator") -> Event:
    """An event that has already fired: yielding it costs no dispatch."""
    event = Event(sim)
    event._state = _PROCESSED
    return event


def dwell_bucket_index(duration_s: float) -> int:
    """Index of the histogram bucket a dwell of ``duration_s`` lands in."""
    for index, bound in enumerate(DWELL_BUCKETS_S):
        if duration_s < bound:
            return index
    return len(DWELL_BUCKETS_S)


@dataclass(frozen=True, slots=True)
class PowerState:
    """A named operating state drawing constant power.

    Attributes
    ----------
    name:
        State identifier (unique within a model).
    power_w:
        Power drawn while in the state, in watts.
    can_communicate:
        Whether the radio can send/receive user data in this state.
    """

    name: str
    power_w: float
    can_communicate: bool = False

    def __post_init__(self) -> None:
        if self.power_w < 0:
            raise ValueError(f"state {self.name!r} has negative power")


@dataclass(frozen=True, slots=True)
class Transition:
    """Cost of moving between two power states.

    Attributes
    ----------
    latency_s:
        Time the transition takes; the radio is unusable meanwhile.
    energy_j:
        Extra energy consumed by the transition (on top of nothing —
        the transition's average power is ``energy_j / latency_s``).
    """

    source: str
    target: str
    latency_s: float = 0.0
    energy_j: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("transition latency must be >= 0")
        if self.energy_j < 0:
            raise ValueError("transition energy must be >= 0")


class RadioPowerModel:
    """An immutable catalogue of power states and transition costs.

    The model is read-only once built: :attr:`states` and
    :attr:`transitions` are read-only mappings and rebinding an
    attribute raises ``AttributeError``.  One instance can therefore be
    shared by every radio built from it (the
    :mod:`repro.devices.profiles` factories return one per process).

    Parameters
    ----------
    name:
        Model name (e.g. ``"802.11b CF card"``).
    states:
        The state set; names must be unique.
    transitions:
        Explicit transition costs.  Pairs not listed fall back to a
        zero-cost transition.
    initial_state:
        Name of the state a fresh radio starts in.
    """

    def __init__(
        self,
        name: str,
        states: Iterable[PowerState],
        transitions: Iterable[Transition] = (),
        initial_state: Optional[str] = None,
    ) -> None:
        by_name: Dict[str, PowerState] = {}
        for state in states:
            if state.name in by_name:
                raise ValueError(f"duplicate state name {state.name!r}")
            by_name[state.name] = state
        if not by_name:
            raise ValueError("a radio model needs at least one state")
        # Every (source, target) pair, so transition() is one lookup;
        # pairs not listed cost nothing.
        table: Dict[Tuple[str, str], Transition] = {
            (source, target): Transition(source, target)
            for source in by_name
            for target in by_name
        }
        _set = object.__setattr__
        _set(self, "name", name)
        _set(self, "states", MappingProxyType(by_name))
        for transition in transitions:
            self._require(transition.source)
            self._require(transition.target)
            table[(transition.source, transition.target)] = transition
        _set(self, "transitions", MappingProxyType(table))
        if initial_state is None:
            initial_state = next(iter(by_name))
        self._require(initial_state)
        _set(self, "initial_state", initial_state)

    def __setattr__(self, attr: str, _value: object) -> None:
        raise AttributeError(f"RadioPowerModel is read-only; cannot set {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"RadioPowerModel is read-only; cannot delete {attr!r}")

    def __reduce__(self):
        # The read-only mapping views do not pickle; rebuild from the
        # full table instead.
        return (
            type(self),
            (
                self.name,
                tuple(self.states.values()),
                tuple(self.transitions.values()),
                self.initial_state,
            ),
        )

    def _require(self, state_name: str) -> None:
        if state_name not in self.states:
            raise KeyError(
                f"unknown state {state_name!r} in model {self.name!r}; "
                f"known: {sorted(self.states)}"
            )

    def power(self, state_name: str) -> float:
        """Power (W) drawn in ``state_name``."""
        self._require(state_name)
        return self.states[state_name].power_w

    def transition(self, source: str, target: str) -> Transition:
        """Transition cost from ``source`` to ``target`` (zero if unlisted)."""
        try:
            return self.transitions[(source, target)]
        except KeyError:
            self._require(source)
            self._require(target)
            raise

    def state_names(self) -> list[str]:
        return list(self.states)

    def __repr__(self) -> str:
        return f"<RadioPowerModel {self.name!r} states={sorted(self.states)}>"


class Radio:
    """A simulator-bound radio instance with a live power trace.

    The MAC layer (or the client resource manager) drives the radio by
    yielding :meth:`transition_to`; energy and time-in-state are tracked
    automatically and queried via :meth:`energy_j`, :meth:`average_power_w`
    and :meth:`time_in_state`.

    Parameters
    ----------
    sim:
        Owning simulator.
    model:
        The power model to instantiate.
    name:
        Instance name for traces (defaults to the model name).
    """

    #: One-shot hooks per state, run as a change into it starts; a dict
    #: only on radios that have one (see :meth:`on_entry`).
    _entry_hooks: Optional[Dict[str, List[Callable[[], None]]]] = None

    def __init__(
        self, sim: "Simulator", model: RadioPowerModel, name: Optional[str] = None
    ) -> None:
        self.sim = sim
        self.model = model
        self.name = name or model.name
        self._state = model.initial_state
        self._in_transition = False
        self._power_trace = TimeWeightedStat(
            initial_time=sim.now, initial_value=model.power(self._state)
        )
        #: Named state over time, for schedule timelines (paper Fig. 1).
        self.state_series = TimeSeries(name=f"{self.name}.state")
        self.state_series.append(sim.now, self._state)
        self._state_durations: Dict[str, float] = {}
        #: Per-state dwell-duration histograms: state -> bucket counts
        #: (see DWELL_BUCKETS_S).  Settled dwells only; every completed
        #: state change contributes exactly one count.
        self._dwell_histograms: Dict[str, list] = {}
        self._last_state_change = sim.now
        self._transition_energy_j = 0.0
        self._transition_count = 0
        #: The state the current (or last) transition lands in.
        self._target_state = self._state
        self._settle_cb = self._settle

    # -- state inspection ---------------------------------------------------

    @property
    def state(self) -> str:
        """Current state name (still the *source* state while transitioning)."""
        return self._state

    @property
    def in_transition(self) -> bool:
        """True while a state change is in progress."""
        return self._in_transition

    @property
    def can_communicate(self) -> bool:
        """True when user data can flow right now."""
        return (
            not self._in_transition and self.model.states[self._state].can_communicate
        )

    @property
    def transition_count(self) -> int:
        """Number of completed state changes (excluding no-ops)."""
        return self._transition_count

    # -- state control ----------------------------------------------------------

    def transition_to(self, target: str) -> Event:
        """Change state to ``target``; yield the returned event to wait.

        The change starts at the call: the ``phy.state`` trace, the dwell
        accounting and the transition count happen before this returns.
        A transition to the current state, or one with zero latency,
        completes at the call too and returns an already-processed
        event, so a process yielding it continues at once.  A transition
        with latency returns one :class:`~repro.sim.events.Timeout`
        whose first callback settles the radio in ``target``, before any
        waiter resumes.

        An unknown ``target`` raises ``KeyError`` and starting a
        transition while another is in progress raises ``RuntimeError``,
        both at the call: the caller (MAC/resource manager) owns
        serialisation.
        """
        source = self._state
        cost = self.model.transition(source, target)
        if self._in_transition:
            raise RuntimeError(
                f"radio {self.name!r}: transition to {target!r} requested "
                f"while already transitioning to {source!r}"
            )
        sim = self.sim
        if target == source:
            return _processed(sim)
        now = sim._now
        bus = sim.trace
        if bus.enabled:
            bus.emit(
                "phy",
                self.name,
                "state",
                source=source,
                target=target,
                dwell_s=now - self._last_state_change,
                latency_s=cost.latency_s,
                energy_j=cost.energy_j,
            )
        self._account_state_time()
        self._transition_count += 1
        self._transition_energy_j += cost.energy_j
        self._target_state = target
        if cost.latency_s > 0:
            # During the transition the radio draws the transition's
            # average power.
            self._in_transition = True
            self._power_trace.record(now, cost.energy_j / cost.latency_s)
            self.state_series.append(now, f"->{target}")
            event = Timeout(sim, cost.latency_s)
            event.callbacks.append(self._settle_cb)
        else:
            # Instantaneous transition: lump the energy as an impulse.
            self._power_trace.add_impulse(cost.energy_j)
            self._settle()
            event = _processed(sim)
        if self._entry_hooks and target in self._entry_hooks:
            self._entered(target)
        return event

    def _settle(self, _timer: Optional[Event] = None) -> None:
        """Land in the transition's target (the latency timer's callback)."""
        now = self.sim._now
        target = self._target_state
        self._in_transition = False
        self._state = target
        self._last_state_change = now
        self._power_trace.record(now, self.model.power(target))
        self.state_series.append(now, target)

    def _account_state_time(self) -> None:
        held = self.sim.now - self._last_state_change
        if held > 0:
            self._state_durations[self._state] = (
                self._state_durations.get(self._state, 0.0) + held
            )
            histogram = self._dwell_histograms.get(self._state)
            if histogram is None:
                histogram = [0] * (len(DWELL_BUCKETS_S) + 1)
                self._dwell_histograms[self._state] = histogram
            histogram[dwell_bucket_index(held)] += 1
        self._last_state_change = self.sim.now

    def force_state(self, state_name: str) -> None:
        """Administratively set the state, with no transition cost.

        For checkpoint/restore (:mod:`repro.shard`): a radio rebuilt in a
        peer simulator must start in the state its twin was snapshotted
        in, without charging — or timing — a transition that never
        physically happened.  Only valid while no transition is in
        progress.
        """
        self.model._require(state_name)
        if self._in_transition:
            raise RuntimeError(
                f"radio {self.name!r}: cannot force state mid-transition"
            )
        if state_name == self._state:
            return
        self._account_state_time()
        self._state = self._target_state = state_name
        self._last_state_change = self.sim.now
        self._power_trace.record(self.sim.now, self.model.power(state_name))
        self.state_series.append(self.sim.now, state_name)
        if self._entry_hooks and state_name in self._entry_hooks:
            self._entered(state_name)

    def on_entry(self, state_name: str, hook: Callable[[], None]) -> None:
        """Call ``hook()`` once, when the radio next starts a change into
        ``state_name`` by any path, or now if it is in or changing to it."""
        if self._target_state == state_name:
            hook()
        else:
            if self._entry_hooks is None:
                self._entry_hooks = {}
            self._entry_hooks.setdefault(state_name, []).append(hook)

    def _entered(self, state_name: str) -> None:
        for hook in self._entry_hooks.pop(state_name):
            hook()

    # -- accounting ----------------------------------------------------------------

    def add_energy_impulse(self, energy_j: float) -> None:
        """Account an instantaneous energy cost outside the state machine.

        Used e.g. by the MAC to add the receive-vs-listen power delta for
        the exact airtime of a received frame, without micro-managing
        rx-state transitions at microsecond granularity.
        """
        if energy_j < 0:
            raise ValueError("energy impulse must be >= 0")
        self._power_trace.add_impulse(energy_j)

    def energy_j(self, now: Optional[float] = None) -> float:
        """Total energy consumed through ``now`` (default: current time)."""
        return self._power_trace.integral(now if now is not None else self.sim.now)

    def average_power_w(self, now: Optional[float] = None) -> float:
        """Time-averaged power through ``now`` (default: current time)."""
        return self._power_trace.mean(now if now is not None else self.sim.now)

    @property
    def transition_energy_j(self) -> float:
        """Energy spent purely on state changes so far."""
        return self._transition_energy_j

    def dwell_histogram(self, state_name: str) -> Tuple[int, ...]:
        """Completed-dwell counts for ``state_name``, one per bucket.

        Buckets follow :data:`DWELL_BUCKETS_S` (labels in
        :data:`DWELL_BUCKET_LABELS`).  The dwell currently in progress is
        not counted until the next state change.
        """
        self.model._require(state_name)
        histogram = self._dwell_histograms.get(state_name)
        if histogram is None:
            return (0,) * (len(DWELL_BUCKETS_S) + 1)
        return tuple(histogram)

    def dwell_histograms(self) -> Dict[str, Tuple[int, ...]]:
        """All non-empty per-state dwell histograms, keyed by state name."""
        return {
            state: tuple(histogram)
            for state, histogram in sorted(self._dwell_histograms.items())
        }

    def time_in_state(self, state_name: str) -> float:
        """Total time spent *settled* in ``state_name`` (transitions excluded)."""
        self.model._require(state_name)
        total = self._state_durations.get(state_name, 0.0)
        if not self._in_transition and state_name == self._state:
            total += self.sim.now - self._last_state_change
        return total

    def current_power_w(self) -> float:
        """Instantaneous power draw."""
        return self._power_trace.value

    def __repr__(self) -> str:
        flag = " (transitioning)" if self._in_transition else ""
        return f"<Radio {self.name!r} state={self._state!r}{flag}>"
