"""SIFS responses and μNap naps as callback chains vs. their processes.

``tests/mac/response_reference.py`` keeps the generator forms.  The
reference worlds here also keep the two events the chains' stations no
longer schedule: the stale ``wait_busy`` event a backoff leaves behind
when its timer wins, and the completion event of every queue put.
"""

from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.profiles import unap_wlan_card
from repro.mac import DcfConfig, DcfStation, Medium
from repro.mac.dcf import _QueuedFrame
from repro.mac.frames import BROADCAST, Frame, FrameKind
from repro.mac.powersave import MicroNapPolicy
from repro.mac.spatial import SpatialMedium
from repro.phy import Radio
from repro.phy.radio import RadioPowerModel, Transition
from repro.sim import RandomStreams, Simulator
from repro.sim.events import Event
from tests.mac.response_reference import ProcessNapPolicy, ProcessResponseDcfStation
from tests.mac.test_dcf import TIMING, _boundary, _FixedDraw


class _ReferenceStation(ProcessResponseDcfStation):
    """Process responses, and a queue put that schedules its event."""

    def enqueue_frame(self, frame: Frame, *, notify: bool = True) -> Optional[Event]:
        done = Event(self.sim) if notify else None
        self.frames_queued += 1
        self._queue.put(_QueuedFrame(frame, done))
        return done


def _keep_stale_busy_waiters(medium):
    medium.cancel_wait_busy = lambda address, event: None


CHAIN = (DcfStation, MicroNapPolicy, lambda medium: None)
REFERENCE = (_ReferenceStation, ProcessNapPolicy, _keep_stale_busy_waiters)


def _data_airtime(size: int) -> float:
    """Airtime of a data frame as a station sends it."""
    return TIMING.data_airtime_s(size, DcfConfig().rate_bps)


# An instant is a random float; a DIFS/slot boundary of a countdown that
# started idle at an anchor (time 0, then each arrival); the end of a
# data frame sent from such a boundary, where its addressee starts to
# owe an ACK; or a SIFS after that end, where the ACK goes on the air.
instants = st.one_of(
    st.tuples(st.just("at"), st.floats(0.0, 4e-3, allow_nan=False)),
    st.tuples(st.just("on"), st.integers(0, 8), st.integers(0, 40)),
    st.tuples(
        st.sampled_from(["end", "sifs"]),
        st.integers(0, 8),
        st.integers(0, 40),
        st.sampled_from([40, 300, 700, 1500]),
    ),
)

windows = st.sampled_from([2e-4, 1e-3, 3e-3])


def _worlds(unap, backoff, reservations):
    return st.fixed_dictionaries(
        {
            "n_stations": st.integers(1, 5),
            "spatial": st.booleans(),
            "hidden": st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4))),
            "rts": st.booleans(),
            "unap": unap,
            "seed": st.integers(0, 2**16),
            # None: seeded backoff draws; a number: every station draws it.
            "backoff": backoff,
            # (instant, source index, destination index, payload bytes); a
            # destination index of n_stations or more means broadcast.
            "arrivals": st.lists(
                st.tuples(
                    instants,
                    st.integers(0, 4),
                    st.integers(0, 5),
                    st.sampled_from([40, 300, 700, 1500]),
                ),
                min_size=1,
                max_size=12,
            ),
            "reservations": reservations,
        }
    )


# A reservation is (instant, station index, window): the station is told
# of a reservation of ``window`` seconds, as an overheard RTS would.  Or
# it is ("lands", arrival index, window), aimed at that arrival's
# addressee in the instant its data lands if sent at once after a fixed
# backoff: the nap is kicked there just before an ACK becomes owed.
lands = st.tuples(st.just("lands"), st.integers(0, 11), windows)
worlds = _worlds(
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 2)),
    st.lists(
        st.one_of(st.tuples(instants, st.integers(0, 4), windows), lands),
        max_size=4,
    ),
)
landing_worlds = _worlds(
    st.just(True), st.integers(0, 2), st.lists(lands, min_size=1, max_size=4)
)


def _resolve(instant, anchors):
    kind = instant[0]
    if kind == "at":
        return instant[1]
    base = _boundary(anchors[instant[1] % len(anchors)], instant[2])
    if kind == "on":
        return base
    end = base + _data_airtime(instant[3])
    return end if kind == "end" else end + TIMING.sifs_s


def _run_world(flavour, world):
    """One small world; returns everything it did that can be observed."""
    station_cls, policy_cls, patch_medium = flavour
    n = world["n_stations"]
    sim = Simulator()
    if world["spatial"]:
        hidden = {frozenset(pair) for pair in world["hidden"]}

        def audible(source, listener):
            return source == listener or (
                frozenset((int(source[1:]), int(listener[1:]))) not in hidden
            )

        medium = SpatialMedium(sim, audibility=audible)
    else:
        medium = Medium(sim)
    patch_medium(medium)
    streams = RandomStreams(seed=world["seed"])
    config = DcfConfig(rts_threshold_bytes=500 if world["rts"] else None)
    stations = [
        station_cls(
            sim,
            medium,
            f"s{i}",
            rng=(
                streams.stream(f"s{i}") if world["backoff"] is None
                else _FixedDraw(world["backoff"])
            ),
            config=config,
            radio=Radio(sim, unap_wlan_card(), name=f"s{i}/wlan"),
            power_policy=policy_cls() if world["unap"] else None,
        )
        for i in range(n)
    ]
    frames = []
    transmit = medium.transmit

    def recording_transmit(frame):
        record = [sim.now, frame.source, frame.destination, frame.kind.value,
                  frame.payload_bytes]
        frames.append(record)
        transmission = transmit(frame)
        transmission.callbacks.append(
            lambda event: record.extend((sim.now, event.value))
        )
        return transmission

    medium.transmit = recording_transmit

    anchors = [0.0]
    for instant, *_ in world["arrivals"]:
        anchors.append(_resolve(instant, anchors))
    timed = list(zip(anchors[1:], world["arrivals"]))
    arrivals = sorted(timed, key=lambda a: a[0])
    reservations = []
    for aim, index, window in world["reservations"]:
        if aim == "lands":
            when, (_instant, _source, index, size) = timed[index % len(timed)]
            instant = _boundary(when, world["backoff"] or 0) + _data_airtime(size)
        else:
            instant = _resolve(aim, anchors)
        reservations.append((instant, index, window))
    reservations.sort()
    outcomes = []

    def reserve(sim):
        # Armed at time 0, so each fires before any frame ending at its
        # instant is delivered.
        timers = [sim.timeout_at(when) for when, _, _ in reservations]
        for timer, (_when, index, window) in zip(timers, reservations):
            yield timer
            policy = stations[index % n].power_policy
            if policy is not None:
                policy.on_nav_set(sim.now + window, None)

    def traffic(sim):
        timers = [sim.timeout_at(when) for when, _ in arrivals]
        for index, (timer, (_when, (_instant, source, destination, size))) in (
            enumerate(zip(timers, arrivals))
        ):
            yield timer
            sender = stations[source % n]
            if destination >= n:
                target = BROADCAST
            elif destination % n == source % n:
                target = "ghost"  # unregistered: every attempt goes unacked
            else:
                target = f"s{destination % n}"
            done = sender.send(target, size)
            done.callbacks.append(
                lambda event, index=index: outcomes.append(
                    (sim.now, index, event.value)
                )
            )

    sim.process(reserve(sim))
    sim.process(traffic(sim))
    sim.run()
    end = sim.now
    return {
        "frames": frames,
        "outcomes": outcomes,
        "medium": (
            medium.frames_sent,
            medium.frames_delivered,
            medium.frames_collided,
            medium.busy_time_s,
        ),
        "stations": [
            (
                s.frames_delivered,
                s.frames_dropped,
                s.retransmissions,
                s.bytes_sent,
                s.bytes_received,
                s.rts_sent,
                s.cts_received,
                s.mac_quiescent,
            )
            for s in stations
        ],
        "naps": [
            (p.naps, p.napped_s, p.naps_declined, p._napping)
            for p in (s.power_policy for s in stations)
            if p is not None
        ],
        "radios": [
            (s.radio.state, s.radio.transition_count, s.radio.energy_j(end))
            for s in stations
        ],
    }


@given(worlds)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_chains_match_the_process_reference(world):
    reference = _run_world(REFERENCE, world)
    assert _run_world(CHAIN, world) == reference


@given(landing_worlds)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_chains_match_the_process_reference_as_acks_become_owed(world):
    reference = _run_world(REFERENCE, world)
    assert _run_world(CHAIN, world) == reference


# -- the instant an ACK becomes owed -------------------------------------------


def _nap_kicked_as_data_lands(flavour):
    """A nap kicked in the instant a data frame for the napper ends.

    ``b``'s reservation timer is armed before ``a``'s frame goes on the
    air, so at the frame's end it fires first: ``b`` sees a quiescent MAC
    and arms the nap kick.  Then the frame lands and ``b`` owes an ACK
    before the kick re-checks.
    """
    station_cls, policy_cls, patch_medium = flavour
    sim = Simulator()
    medium = Medium(sim)
    patch_medium(medium)
    a = station_cls(sim, medium, "a", rng=_FixedDraw(0))
    b = station_cls(
        sim, medium, "b", rng=_FixedDraw(0),
        radio=Radio(sim, unap_wlan_card(), name="b/wlan"),
        power_policy=policy_cls(),
    )
    lands = _boundary(0.0, 0) + _data_airtime(1000)
    seen = {}

    def reserve(sim):
        yield sim.timeout_at(lands)
        b.power_policy.on_nav_set(sim.now + 3e-3, None)
        seen["napping"] = b.power_policy._napping

    sim.process(reserve(sim))
    done = a.send("b", 1000)
    sim.run()
    return sim, a, b, done, seen


def test_an_owed_ack_keeps_a_kicked_nap_from_starting():
    for flavour in (CHAIN, REFERENCE):
        _sim, a, b, done, seen = _nap_kicked_as_data_lands(flavour)
        assert seen == {"napping": True}  # the kick was armed
        policy = b.power_policy
        # The re-check saw the owed ACK and gave the nap up.
        assert (policy.naps, policy.naps_declined, policy._napping) == (0, 0, False)
        assert b.radio.transition_count == 2  # idle -> tx -> idle: the ACK
        assert done.value is True and a.frames_delivered == 1
        assert b.mac_quiescent


def test_pending_ack_counts_from_the_frame_that_asks_for_it():
    sim = Simulator()
    medium = Medium(sim)
    b = DcfStation(sim, medium, "b", rng=_FixedDraw(0))
    b.on_frame(Frame(FrameKind.DATA, "a", "b", payload_bytes=100))
    assert not b.mac_quiescent  # owed at once, not a dispatch later
    sim.run()
    assert b.mac_quiescent


def _slow_tx_card():
    """The μNap card, except that doze -> tx takes 300 µs."""
    card = unap_wlan_card()
    return RadioPowerModel(
        "wlan-unap-slow-tx",
        card.states.values(),
        list(card.transitions.values())
        + [Transition("doze", "tx", latency_s=300e-6, energy_j=300e-6)],
        initial_state="idle",
    )


def _frame_sent_mid_nap(flavour):
    """``b`` naps from 0 until 2.75 ms; a frame queued at 2.5 ms starts
    its doze -> tx transition at 2.55 ms, so the nap's wake-up finds the
    radio mid-transition and waits slot by slot for it to settle."""
    station_cls, policy_cls, patch_medium = flavour
    sim = Simulator()
    medium = Medium(sim)
    patch_medium(medium)
    station_cls(sim, medium, "a", rng=_FixedDraw(0))
    b = station_cls(
        sim, medium, "b", rng=_FixedDraw(0),
        radio=Radio(sim, _slow_tx_card(), name="b/wlan"),
        power_policy=policy_cls(),
    )
    b.power_policy.on_nav_set(3e-3, None)
    results = []

    def late_frame(sim):
        yield sim.timeout(2.5e-3)
        results.append((yield b.send("a", 200)))

    sim.process(late_frame(sim))
    sim.run()
    policy = b.power_policy
    return (
        results, sim.now, policy.naps, policy.napped_s, b.radio.state,
        b.radio.transition_count, b.radio.energy_j(sim.now),
    )


def test_a_frame_sent_mid_nap_settles_before_the_wake():
    observed = _frame_sent_mid_nap(CHAIN)
    assert observed == _frame_sent_mid_nap(REFERENCE)
    results, _end, naps, napped_s, state, transitions, _energy = observed
    # idle -> doze, doze -> tx, tx -> idle: the frame leaves the radio
    # awake, so b hears its ACK at the first attempt, and the wake-up
    # finds the radio already out of doze.
    assert results == [True] and state == "idle" and transitions == 3
    # b dozed from the end of idle -> doze (50 µs) until the frame's
    # doze -> tx began, a DIFS after it was queued.
    assert naps == 1 and napped_s == 2.55e-3 - 50e-6


# -- exact kernel cost of one exchange ------------------------------------------


def _exchange(flavour, rts):
    station_cls, _policy_cls, patch_medium = flavour
    sim = Simulator()
    medium = Medium(sim)
    patch_medium(medium)
    config = DcfConfig(rts_threshold_bytes=500 if rts else None)
    a = station_cls(sim, medium, "a", rng=_FixedDraw(0), config=config)
    station_cls(sim, medium, "b", rng=_FixedDraw(0), config=config)
    done = a.send("b", 1000)
    sim.run()
    assert done.value is True
    return sim.events_scheduled


def test_one_data_ack_exchange_schedules_exactly():
    # The two sender loops' bootstraps, the get of the queued frame, the
    # DIFS timer and its FirstOf, the DATA airtime, the SIFS timer, the
    # ACK timeout, the ACK airtime, the ACK-wait event and its FirstOf,
    # and the send's done event: 12.  (b's get waits forever without an
    # event.)
    assert _exchange(CHAIN, rts=False) == 12
    # The process answering with the ACK adds its bootstrap and its
    # completion; the queue put its completion; and the busy waiter the
    # DIFS timer beat is triggered by the DATA it let on the air.
    assert _exchange(REFERENCE, rts=False) == 12 + 2 + 1 + 1


def test_one_rts_cts_exchange_schedules_exactly():
    # The exchange above plus the RTS airtime, the CTS timeout, the
    # CTS's SIFS timer and airtime, the CTS-wait event and its FirstOf,
    # and the SIFS before the DATA: 12 + 7.
    assert _exchange(CHAIN, rts=True) == 19
    # Two answering processes (CTS, ACK), the put, the stale waiter.
    assert _exchange(REFERENCE, rts=True) == 19 + 2 * 2 + 1 + 1
