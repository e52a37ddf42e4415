"""Closed-form 802.11b PSM throughput and energy predictors.

Independent correctness oracles for the MAC/transport stack, after the
analytical infrastructure-WLAN models of Agrawal/Kumar et al.
(arXiv:0909.3717 for per-STA TCP energy, arXiv:1012.4815 for PSM
saturation throughput).  Every predictor is pure arithmetic over a
plain parameter dataclass — no simulator, no event loop — so a full
grid evaluates in microseconds and can pre-screen campaign grids
(:mod:`repro.analytic.surrogate`) or cross-check simulator output
(:mod:`repro.analytic.crossval`).

The constants are shared with the simulator, not copied: MAC timing
comes from :class:`repro.mac.frames.Dot11Timing`, the beacon size and
the ``PsmConfig`` wake-guard and poll-timeout defaults from
:mod:`repro.mac.frames`, and radio power from
:func:`repro.metrics.energy.wlan_cf_constants`, which reads the same
:class:`~repro.phy.radio.RadioPowerModel` the simulator charges.

Modelled protocol, mirroring :mod:`repro.mac.psm` / :mod:`repro.mac.dcf`:

* Downlink PSM drain: the AP buffers for dozing stations and announces
  them in per-beacon TIMs; a station wakes ``wake_guard_s`` before its
  listen-interval TBTT, receives the beacon, then retrieves one frame
  per PS-Poll until ``more_data`` clears.  One retrieval occupies

  ``T_x = (DIFS + E[BO] + T_poll) + (DIFS + E[BO] + T_data) + (SIFS + T_ack)``

  with ``E[BO] = cw_min/2`` slots (the AP and a lone poller never
  double their window).
* Uplink CAM: plain DCF stations, Bianchi's saturation fixed point
  (tau/p) with the repo's ``cw_min=31``, five doublings to ``cw_max``.
* Beacons contend for the same medium; their share
  ``(DIFS + E[BO] + T_beacon(tim)) / T_beacon_interval`` is removed
  from usable capacity.
* Energy integrates the same accounting the radio performs: base state
  power, ``(tx-idle)``/``(rx-idle)`` deltas for airtime actually
  transmitted/heard, and the exact doze<->idle transition impulses.
  The medium delivers unicast frames to their destination only, so a
  station is rx-charged for its *own* frames plus broadcast beacons —
  there is no overhearing of other stations' exchanges.
* PS-Poll stall at saturation: a station whose poll collides waits out
  ``poll_data_timeout`` (50 ms) before re-polling.  With exactly two
  saturated stations the colliding polls stall *both*, idling the
  medium; :data:`PS_POLL_STALL_COUPLING` calibrates how often the two
  re-polls actually contend in the same backoff window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from repro._domain import Domain, SpecError, domain, domain_values, validate
from repro.mac.frames import (
    BEACON_BASE_BYTES,
    PSM_POLL_DATA_TIMEOUT_S,
    PSM_WAKE_GUARD_S,
    Dot11Timing,
)
from repro.metrics.energy import (
    RadioPowerConstants,
    unap_wlan_constants,
    wlan_cf_constants,
)

__all__ = [
    "PsmParams",
    "TcpParams",
    "UnapParams",
    "ThroughputPrediction",
    "EnergyPrediction",
    "DutyCyclePrediction",
    "TcpEnergyPrediction",
    "psm_saturation_throughput",
    "psm_station_energy",
    "psm_wakeup_duty_cycle",
    "tcp_station_energy",
    "unap_station_energy",
    "bianchi_fixed_point",
]

#: The ``PsmConfig`` defaults the simulator's stations use.
DEFAULT_WAKE_GUARD_S = PSM_WAKE_GUARD_S
DEFAULT_POLL_TIMEOUT_S = PSM_POLL_DATA_TIMEOUT_S

#: How often, per completed drain round at two-station saturation, the
#: two stations' re-polls end up contending in the same backoff window
#: (and so collide with probability ``1/(cw_min+1)``, stalling both for
#: the poll-data timeout).  Calibrated once against the simulator at
#: n=2, 1000-byte frames, 11 Mb/s; the cross-validation suite re-checks
#: the agreement on every run.
PS_POLL_STALL_COUPLING = 0.33


# ---------------------------------------------------------------------------
# Parameters


class _Params:
    """Checked against, and described by, the fields with a domain."""

    def __post_init__(self) -> None:
        validate(self)

    def describe(self) -> Dict[str, Any]:
        return domain_values(self)


_DIRECTIONS = ("downlink", "uplink")
_STATIONS = Domain(int, ge=1)


@dataclass(frozen=True)
class PsmParams(_Params):
    """Shared sim/model parameter space for the PSM scenarios.

    Field names deliberately match the ``psm-crossval`` scenario's
    parameters so a campaign grid point maps onto a model evaluation
    without translation (see DESIGN.md for the symbol table).
    """

    #: Number of stations contending under one AP.
    n_stations: int = domain(int, ge=1, default=1)
    #: Application payload per MAC data frame, bytes.
    packet_bytes: int = domain(int, gt=0, default=1000)
    #: PHY data rate for data frames (controls/beacons go at basic rate).
    rate_bps: float = domain(float, gt=0, default=11_000_000.0)
    #: Offered load *per station*, application bits per second.
    offered_load_bps: float = domain(float, ge=0, default=128_000.0)
    #: Wake every n-th beacon.
    listen_interval: int = domain(int, ge=1, default=1)
    #: Observation window (finite-run corrections need it).
    duration_s: float = domain(float, gt=0, default=10.0)
    #: "downlink" = PSM drain via PS-Polls; "uplink" = CAM DCF to the AP.
    direction: str = domain(str, choices=_DIRECTIONS, default="downlink")
    #: How much before the target TBTT the radio starts waking.
    wake_guard_s: float = DEFAULT_WAKE_GUARD_S
    #: How long a station waits for polled data before re-polling.
    poll_timeout_s: float = DEFAULT_POLL_TIMEOUT_S
    timing: Dot11Timing = field(default_factory=Dot11Timing)
    power: RadioPowerConstants = field(default_factory=wlan_cf_constants)


@dataclass(frozen=True)
class TcpParams(_Params):
    """Per-STA TCP transfer over infrastructure WLAN (arXiv:0909.3717).

    A station moving one long TCP flow in CAM: every ``delayed_ack_ratio``
    data segments trigger one 40-byte TCP ACK crossing the air in the
    opposite direction.
    """

    n_stations: int = domain(int, ge=1, default=1)
    #: TCP maximum segment size on the air, bytes.
    segment_bytes: int = domain(int, gt=0, default=1460)
    rate_bps: float = domain(float, gt=0, default=11_000_000.0)
    #: Data segments per TCP ACK (2 = delayed ACKs).
    delayed_ack_ratio: int = domain(int, ge=1, default=2)
    #: "uplink" = station transmits segments; "downlink" = it receives.
    direction: str = domain(str, choices=_DIRECTIONS, default="uplink")
    timing: Dot11Timing = field(default_factory=Dot11Timing)
    power: RadioPowerConstants = field(default_factory=wlan_cf_constants)


@dataclass(frozen=True)
class UnapParams(_Params):
    """Shared sim/model parameter space for the ``unap-hotspot`` scenario.

    Field names match the scenario's keyword arguments (``n_clients``
    renames to ``n_stations`` via ``SIM_TO_MODEL``), so a campaign grid
    point maps onto a model evaluation without translation — the same
    contract :class:`PsmParams` has with ``psm-crossval``.

    The modelled world is the ``unap-hotspot`` assembly: ``n_stations``
    uplink CAM stations under one beaconing AP on a shared medium that
    delivers every frame to every station (the overhearing substrate),
    all data protected by RTS/CTS, and each station running either the
    μNap policy (doze through overheard NAV reservations) or plain CAM.
    """

    #: Number of client stations contending under one AP.
    n_stations: int = domain(int, ge=1, default=4)
    #: Application payload per MAC data frame, bytes.
    packet_bytes: int = domain(int, gt=0, default=1000)
    #: PHY data rate for data frames (controls/beacons go at basic rate).
    rate_bps: float = domain(float, gt=0, default=11_000_000.0)
    #: Offered load *per station*, application bits per second.
    offered_load_bps: float = domain(float, ge=0, default=256_000.0)
    #: Observation window.
    duration_s: float = domain(float, gt=0, default=10.0)
    #: RTS/CTS threshold; the model requires every data frame protected
    #: (bare-DATA tail naps follow different timing).
    rts_threshold_bytes: int = domain(int, default=500)
    #: "unap" = μNap micro-sleeps; "cam" = same assembly, no napping.
    power_policy: str = domain(str, choices=("unap", "cam"), default="unap")
    timing: Dot11Timing = field(default_factory=Dot11Timing)
    power: RadioPowerConstants = field(default_factory=unap_wlan_constants)

    def __post_init__(self) -> None:
        validate(self)
        if not self.rts_threshold_bytes <= self.packet_bytes:
            raise SpecError(
                "UnapParams.rts_threshold_bytes must be <= packet_bytes (the model "
                f"assumes RTS/CTS-protected data); got {self.rts_threshold_bytes}"
            )


# ---------------------------------------------------------------------------
# Prediction records


class _Record:
    def as_record(self) -> Dict[str, Any]:
        """Every field in declaration order, dicts copied."""
        record = {}
        for f in fields(self):
            value = getattr(self, f.name)
            record[f.name] = dict(value) if isinstance(value, dict) else value
        return record


@dataclass(frozen=True)
class ThroughputPrediction(_Record):
    """Aggregate goodput prediction for one PSM/CAM parameter point."""

    predictor: str
    #: Delivered application bits/s, aggregate over stations.
    throughput_bps: float
    #: Saturation ceiling at this point (beacon overhead included).
    capacity_bps: float
    saturated: bool
    #: Medium share spent on beacons.
    beacon_overhead_frac: float
    #: Medium time of one complete data exchange.
    exchange_time_s: float
    params: Dict[str, Any]


@dataclass(frozen=True)
class EnergyPrediction(_Record):
    """Per-station WNIC energy prediction."""

    predictor: str
    #: Average WNIC power over the run, per station.
    wnic_power_w: float
    #: Total WNIC energy over ``duration_s``, per station.
    energy_j: float
    #: Fraction of the run the radio is out of the doze state.
    duty_cycle: float
    saturated: bool
    #: Additive decomposition of ``wnic_power_w`` (watts): base state
    #: dwell, tx/rx deltas over the base, and transition impulses.
    breakdown_w: Dict[str, float]
    params: Dict[str, Any]


@dataclass(frozen=True)
class DutyCyclePrediction(_Record):
    """Beacon-period wakeup duty cycle of a PSM station."""

    predictor: str
    #: Awake fraction of one listen-interval cycle in steady state.
    duty_cycle: float
    awake_s_per_cycle: float
    cycle_s: float
    wakeups_per_s: float
    saturated: bool
    params: Dict[str, Any]


@dataclass(frozen=True)
class TcpEnergyPrediction(_Record):
    """Per-STA power and goodput for a saturated TCP transfer in CAM."""

    predictor: str
    wnic_power_w: float
    #: Application goodput of the flow, bits/s.
    throughput_bps: float
    #: Fraction of time the station's radio transmits / receives.
    tx_utilisation: float
    rx_utilisation: float
    breakdown_w: Dict[str, float]
    params: Dict[str, Any]


# ---------------------------------------------------------------------------
# MAC timing helpers


def expected_backoff_s(timing: Dot11Timing) -> float:
    """Mean initial backoff: uniform over ``[0, cw_min]`` slots."""
    return timing.cw_min / 2.0 * timing.slot_s


def poll_airtime_s(timing: Dot11Timing) -> float:
    """PS-Poll airtime at the basic rate."""
    return timing.plcp_overhead_s + timing.ps_poll_bytes * 8.0 / timing.basic_rate_bps


def beacon_airtime_s(timing: Dot11Timing, tim_entries: float = 0.0) -> float:
    """Beacon airtime: base body plus one byte per TIM entry."""
    return timing.data_airtime_s(0, timing.basic_rate_bps) + (
        (BEACON_BASE_BYTES + tim_entries) * 8.0 / timing.basic_rate_bps
    )


def beacon_overhead_frac(timing: Dot11Timing, tim_entries: float = 0.0) -> float:
    """Medium share one beacon per interval consumes, contention included."""
    access = timing.difs_s + expected_backoff_s(timing)
    return (access + beacon_airtime_s(timing, tim_entries)) / timing.beacon_interval_s


def psm_exchange_time_s(params: PsmParams) -> float:
    """Medium time of one PS-Poll retrieval (poll + data + ACK)."""
    t = params.timing
    access = t.difs_s + expected_backoff_s(t)
    return (
        (access + poll_airtime_s(t))
        + (access + t.data_airtime_s(params.packet_bytes, params.rate_bps))
        + (t.sifs_s + t.ack_airtime_s())
    )


def bianchi_fixed_point(
    n: int, cw_min: int, cw_max: int
) -> tuple[float, float]:
    """Bianchi's (tau, p) saturation fixed point for ``n`` stations.

    ``tau`` is the per-slot transmission probability, ``p`` the
    conditional collision probability.  Solved by bisection on ``p``
    (the composed map is monotone), exact for ``n == 1``.
    """
    _STATIONS.check("bianchi_fixed_point.n", n)
    w = cw_min + 1
    stages = max(0, int(round(math.log2((cw_max + 1) / w))))

    def tau_of(p: float) -> float:
        if stages == 0:
            return 2.0 / (w + 1)
        num = 2.0 * (1.0 - 2.0 * p)
        den = (1.0 - 2.0 * p) * (w + 1) + p * w * (1.0 - (2.0 * p) ** stages)
        return num / den

    if n == 1:
        return tau_of(0.0), 0.0

    lo, hi = 0.0, 0.9999
    for _ in range(200):
        mid = (lo + hi) / 2.0
        # p consistent with tau(mid): collision seen iff any other txs.
        implied = 1.0 - (1.0 - tau_of(mid)) ** (n - 1)
        if implied > mid:
            lo = mid
        else:
            hi = mid
    p = (lo + hi) / 2.0
    return tau_of(p), p


def dcf_saturation_throughput_bps(params: PsmParams) -> float:
    """Bianchi aggregate saturation goodput for uplink CAM stations."""
    t = params.timing
    n = params.n_stations
    tau, _ = bianchi_fixed_point(n, t.cw_min, t.cw_max)
    data_air = t.data_airtime_s(params.packet_bytes, params.rate_bps)
    # Successful exchange / collision slot durations (anchored on DIFS).
    t_success = data_air + t.sifs_s + t.ack_airtime_s() + t.difs_s
    t_collision = data_air + t.ack_timeout_s() + t.difs_s
    p_tr = 1.0 - (1.0 - tau) ** n
    p_s = n * tau * (1.0 - tau) ** (n - 1) / p_tr if p_tr > 0 else 0.0
    expected_slot = (
        (1.0 - p_tr) * t.slot_s
        + p_tr * p_s * t_success
        + p_tr * (1.0 - p_s) * t_collision
    )
    payload_bits = params.packet_bytes * 8.0
    raw = p_tr * p_s * payload_bits / expected_slot
    return raw * (1.0 - beacon_overhead_frac(t, 0.0))


# ---------------------------------------------------------------------------
# Predictors


def psm_saturation_throughput(params: PsmParams) -> ThroughputPrediction:
    """Aggregate goodput: ``min(offered, capacity)`` with run-in losses.

    Downlink capacity serialises one PS-Poll retrieval per frame behind
    the per-interval beacon; uplink capacity is Bianchi's DCF limit.
    Finite runs lose the initial doze (downlink wakes at the first
    listen-interval TBTT) and, unsaturated, the undrained tail backlog.
    """
    t = params.timing
    n = params.n_stations
    exchange = psm_exchange_time_s(params)
    offered_aggregate = n * params.offered_load_bps
    if params.direction == "downlink":
        # Under saturation every station has buffered frames: TIM = n.
        overhead = beacon_overhead_frac(t, float(n))
        capacity = params.packet_bytes * 8.0 * (1.0 - overhead) / exchange
        if n == 2:
            # Poll-poll collisions stall *both* stations for the poll
            # timeout, idling the medium (with three or more stations
            # the survivors keep draining, so no aggregate loss).
            frame_rate = capacity / (params.packet_bytes * 8.0)
            stall = (
                PS_POLL_STALL_COUPLING
                * frame_rate
                * params.poll_timeout_s
                / (n * (t.cw_min + 1))
            )
            capacity /= 1.0 + stall
    else:
        overhead = beacon_overhead_frac(t, 0.0)
        capacity = dcf_saturation_throughput_bps(params)
    saturated = offered_aggregate >= capacity
    cycle = params.listen_interval * t.beacon_interval_s
    duration = params.duration_s
    if saturated:
        throughput = capacity
        if params.direction == "downlink":
            # Nothing drains before the first caught beacon.
            throughput *= max(0.0, duration - cycle) / duration
    else:
        throughput = offered_aggregate
        if params.direction == "downlink":
            # Frames from the tail of the run are still buffered at the
            # end: on average half a listen interval of arrivals.
            throughput *= max(0.0, duration - cycle / 2.0) / duration
    return ThroughputPrediction(
        predictor="psm-throughput",
        throughput_bps=throughput,
        capacity_bps=capacity,
        saturated=saturated,
        beacon_overhead_frac=overhead,
        exchange_time_s=exchange,
        params=params.describe(),
    )


def _downlink_cycle_awake_s(params: PsmParams, frames_per_cycle: float) -> Dict[str, float]:
    """Awake-time components of one unsaturated listen-interval cycle.

    Returns seconds per cycle: ``wake`` / ``sleep`` transition
    latencies, ``idle_guard`` (radio up before the TBTT), ``beacon``
    (contention + beacon airtime), ``drain`` (own retrievals),
    ``overheard`` (waiting while other stations' interleaved retrievals
    hold the medium — the station stays up until its *last* frame
    drains, at expected position ``m(nm+1)/(m+1)`` of the ``nm``
    randomly interleaved exchanges), ``stall`` (poll collisions burning
    the poll-data timeout awake), and ``slack`` (the MAC-quiescence
    poll granularity).
    """
    t = params.timing
    p = params.power
    n = params.n_stations
    m = frames_per_cycle
    exchange = psm_exchange_time_s(params)
    # Probability a station has something buffered at its TBTT.
    q = 1.0 - math.exp(-m) if m > 0 else 0.0
    # Expected exchanges until this station's last frame completes.
    until_done = m * (n * m + 1.0) / (m + 1.0) if m > 0 else 0.0
    stall = 0.0
    if n >= 2 and m > 0:
        # First polls after a shared beacon collide when both stations
        # draw the same backoff slot; during the drain, re-polls couple
        # as at saturation.  Either way the poller idles out the full
        # poll-data timeout before retrying.
        collisions = (q * q + PS_POLL_STALL_COUPLING * n * m) / (t.cw_min + 1)
        stall = collisions * params.poll_timeout_s
    return {
        "wake": p.wake_latency_s,
        "idle_guard": max(0.0, params.wake_guard_s - p.wake_latency_s),
        "beacon": t.difs_s + expected_backoff_s(t) + beacon_airtime_s(t, n * q),
        "drain": m * exchange,
        "overheard": (until_done - m) * exchange,
        "stall": stall,
        "slack": t.slot_s,
        "sleep": p.sleep_latency_s,
    }


def psm_station_energy(params: PsmParams) -> EnergyPrediction:
    """Per-station WNIC average power with a state/delta breakdown.

    Mirrors the simulator's charging rules: base state power while
    dwelling, ``tx-idle`` / ``rx-idle`` deltas for airtime transmitted
    or heard while awake (dozing radios hear nothing), and the exact
    doze<->idle transition impulse energies.
    """
    t = params.timing
    p = params.power
    n = params.n_stations
    duration = params.duration_s
    throughput = psm_saturation_throughput(params)
    poll_air = poll_airtime_s(t)
    ack_air = t.ack_airtime_s()
    data_air = t.data_airtime_s(params.packet_bytes, params.rate_bps)

    if params.direction == "uplink":
        # CAM DCF station: always awake, idle base.
        tau, _ = bianchi_fixed_point(n, t.cw_min, t.cw_max)
        per_station_bps = throughput.throughput_bps / n
        frame_rate = per_station_bps / (params.packet_bytes * 8.0)
        if throughput.saturated:
            # Attempt rate exceeds the success rate by the collisions.
            success_prob = (1.0 - tau) ** (n - 1)
            attempt_rate = frame_rate / success_prob if success_prob > 0 else 0.0
        else:
            attempt_rate = frame_rate
        u_tx = attempt_rate * data_air
        # Unicast goes to its destination only: the station hears the
        # MAC ACKs addressed to it plus the broadcast beacons.
        heard_s = (
            frame_rate * ack_air
            + beacon_airtime_s(t, 0.0) / t.beacon_interval_s
        )
        breakdown = {
            "idle": p.idle_w,
            "sleep": 0.0,
            "tx_delta": (p.tx_w - p.idle_w) * u_tx,
            "rx_delta": max(p.rx_w - p.idle_w, 0.0) * heard_s,
            "transitions": 0.0,
        }
        power = sum(breakdown.values())
        return EnergyPrediction(
            predictor="psm-energy",
            wnic_power_w=power,
            energy_j=power * duration,
            duty_cycle=1.0,
            saturated=throughput.saturated,
            breakdown_w=breakdown,
            params=params.describe(),
        )

    cycle = params.listen_interval * t.beacon_interval_s
    if throughput.saturated:
        # After the first caught beacon the drain never ends: the
        # station stays awake for the rest of the run.
        wake_at = max(0.0, cycle - params.wake_guard_s)
        doze_s = max(0.0, wake_at - p.sleep_latency_s)
        awake_s = max(0.0, duration - wake_at - p.wake_latency_s)
        frame_rate = throughput.capacity_bps / (params.packet_bytes * 8.0)
        own_rate = frame_rate / n
        u_tx = own_rate * (poll_air + ack_air)
        # Heard: the station's own downlink data plus broadcast beacons
        # (unicast to other stations is never delivered to this one).
        heard_s = (
            own_rate * data_air
            + beacon_airtime_s(t, float(n)) / t.beacon_interval_s
        )
        energy = (
            p.sleep_energy_j
            + p.sleep_w * doze_s
            + p.wake_energy_j
            + (
                p.idle_w
                + (p.tx_w - p.idle_w) * u_tx
                + max(p.rx_w - p.idle_w, 0.0) * heard_s
            )
            * awake_s
        )
        breakdown = {
            "idle": p.idle_w * awake_s / duration,
            "sleep": p.sleep_w * doze_s / duration,
            "tx_delta": (p.tx_w - p.idle_w) * u_tx * awake_s / duration,
            "rx_delta": max(p.rx_w - p.idle_w, 0.0) * heard_s * awake_s / duration,
            "transitions": (p.sleep_energy_j + p.wake_energy_j) / duration,
        }
        return EnergyPrediction(
            predictor="psm-energy",
            wnic_power_w=energy / duration,
            energy_j=energy,
            duty_cycle=(awake_s + p.wake_latency_s) / duration,
            saturated=True,
            breakdown_w=breakdown,
            params=params.describe(),
        )

    # Unsaturated: periodic wake/drain/doze cycles.
    arrival_rate = params.offered_load_bps / (params.packet_bytes * 8.0)
    m = arrival_rate * cycle
    parts = _downlink_cycle_awake_s(params, m)
    awake = sum(parts.values()) - parts["sleep"]
    awake = min(awake, cycle - parts["sleep"])
    doze_s = max(0.0, cycle - awake - parts["sleep"])
    # Airtime transmitted / heard per cycle while awake.
    u_tx_s = m * (poll_air + ack_air)
    q = 1.0 - math.exp(-m) if m > 0 else 0.0
    # Per-cycle heard airtime: one beacon plus the station's own data
    # (other stations' drains extend the awake window but are unicast
    # elsewhere, so they cost idle time, not rx deltas).
    heard_s = beacon_airtime_s(t, n * q) + m * data_air
    idle_s = awake - parts["wake"] - u_tx_s
    energy_cycle = (
        p.wake_energy_j
        + p.sleep_energy_j
        + p.idle_w * max(0.0, idle_s)
        + p.tx_w * u_tx_s
        + max(p.rx_w - p.idle_w, 0.0) * heard_s
        + p.sleep_w * doze_s
    )
    power = energy_cycle / cycle
    breakdown = {
        "idle": p.idle_w * max(0.0, idle_s) / cycle,
        "sleep": p.sleep_w * doze_s / cycle,
        "tx_delta": (p.tx_w - p.idle_w) * u_tx_s / cycle,
        "rx_delta": max(p.rx_w - p.idle_w, 0.0) * heard_s / cycle,
        "transitions": (p.wake_energy_j + p.sleep_energy_j) / cycle,
    }
    # "tx_delta" above is the extra over idle; the idle component keeps
    # the full awake window so the parts sum to the total.
    breakdown["idle"] += p.idle_w * u_tx_s / cycle
    return EnergyPrediction(
        predictor="psm-energy",
        wnic_power_w=power,
        energy_j=power * duration,
        duty_cycle=awake / cycle,
        saturated=False,
        breakdown_w=breakdown,
        params=params.describe(),
    )


def psm_wakeup_duty_cycle(params: PsmParams) -> DutyCyclePrediction:
    """Steady-state awake fraction of the listen-interval cycle."""
    t = params.timing
    cycle = params.listen_interval * t.beacon_interval_s
    if params.direction == "uplink":
        return DutyCyclePrediction(
            predictor="psm-duty-cycle",
            duty_cycle=1.0,
            awake_s_per_cycle=cycle,
            cycle_s=cycle,
            wakeups_per_s=0.0,
            saturated=True,
            params=params.describe(),
        )
    throughput = psm_saturation_throughput(params)
    if throughput.saturated:
        return DutyCyclePrediction(
            predictor="psm-duty-cycle",
            duty_cycle=1.0,
            awake_s_per_cycle=cycle,
            cycle_s=cycle,
            wakeups_per_s=0.0,
            saturated=True,
            params=params.describe(),
        )
    arrival_rate = params.offered_load_bps / (params.packet_bytes * 8.0)
    parts = _downlink_cycle_awake_s(params, arrival_rate * cycle)
    awake = min(sum(parts.values()), cycle)
    return DutyCyclePrediction(
        predictor="psm-duty-cycle",
        duty_cycle=awake / cycle,
        awake_s_per_cycle=awake,
        cycle_s=cycle,
        wakeups_per_s=1.0 / cycle,
        saturated=False,
        params=params.describe(),
    )


def tcp_station_energy(params: TcpParams) -> TcpEnergyPrediction:
    """Per-STA power for a saturated TCP flow in CAM (arXiv:0909.3717).

    One MAC exchange per data segment plus one per ``delayed_ack_ratio``
    segments for the 40-byte TCP ACK travelling the other way.  The
    station is never allowed to doze (CAM), so the base draw is idle
    power and traffic only adds tx/rx deltas.
    """
    t = params.timing
    p = params.power
    access = t.difs_s + expected_backoff_s(t)
    data_air = t.data_airtime_s(params.segment_bytes, params.rate_bps)
    tcp_ack_air = t.data_airtime_s(40, params.rate_bps)
    mac_ack = t.sifs_s + t.ack_airtime_s()
    ratio = 1.0 / params.delayed_ack_ratio
    # Time to move one segment plus its share of the reverse TCP ACK.
    cycle = (access + data_air + mac_ack) + ratio * (access + tcp_ack_air + mac_ack)
    throughput = params.segment_bytes * 8.0 / cycle
    throughput *= 1.0 - beacon_overhead_frac(t, 0.0)
    segment_rate = throughput / (params.segment_bytes * 8.0)
    if params.direction == "uplink":
        tx_air = data_air + ratio * t.ack_airtime_s()
        rx_air = ratio * tcp_ack_air + t.ack_airtime_s()
    else:
        tx_air = ratio * tcp_ack_air + t.ack_airtime_s()
        rx_air = data_air + ratio * t.ack_airtime_s()
    u_tx = segment_rate * tx_air
    u_rx = segment_rate * rx_air + beacon_airtime_s(t, 0.0) / t.beacon_interval_s
    breakdown = {
        "idle": p.idle_w,
        "tx_delta": (p.tx_w - p.idle_w) * u_tx,
        "rx_delta": max(p.rx_w - p.idle_w, 0.0) * u_rx,
    }
    power = sum(breakdown.values())
    return TcpEnergyPrediction(
        predictor="tcp-energy",
        wnic_power_w=power,
        throughput_bps=throughput,
        tx_utilisation=u_tx,
        rx_utilisation=u_rx,
        breakdown_w=breakdown,
        params=params.describe(),
    )


def unap_station_energy(params: UnapParams) -> EnergyPrediction:
    """Per-station WNIC power in the ``unap-hotspot`` world (μNap or CAM).

    Mirrors :class:`repro.mac.powersave.MicroNapPolicy` over the
    RTS/CTS-protected uplink the scenario assembles.  Per station, with
    per-station frame rate ``lambda = offered / (8 * packet_bytes)``:

    * Base draw: idle (a CAM/μNap station never does PSM-style dozing).
    * Own exchanges: ``tx-idle`` delta for the RTS + DATA it transmits,
      ``rx-idle`` delta for the CTS + ACK addressed to it, plus the
      broadcast beacon share.
    * The ``(n-1) * lambda`` overheard exchanges per second are where
      the two policies diverge.  Both hear the RTS (rx delta); the NAV
      it carries reserves the medium for
      ``W = 3*SIFS + T_cts + T_data + T_ack``.  CAM idles through W and
      rx-charges the overheard CTS/DATA/ACK; μNap spends W on a
      doze round trip instead — the exact transition impulses plus doze
      draw for the remainder — and hears nothing (dozing radios are
      deaf), landing back in idle exactly at the reservation end.

    Validity: unsaturated offered load (the model has no contention
    queueing); ``saturated`` flags points past the RTS/CTS exchange
    capacity, where the prediction degrades.
    """
    t = params.timing
    p = params.power
    n = params.n_stations
    lam = params.offered_load_bps / (params.packet_bytes * 8.0)
    rts_air = t.rts_airtime_s()
    cts_air = t.cts_airtime_s()
    ack_air = t.ack_airtime_s()
    data_air = t.data_airtime_s(params.packet_bytes, params.rate_bps)
    # NAV window the RTS reserves (everything after the RTS ends).
    nav_s = 3.0 * t.sifs_s + cts_air + data_air + ack_air
    exchange = t.difs_s + expected_backoff_s(t) + rts_air + nav_s
    capacity = (
        params.packet_bytes * 8.0 * (1.0 - beacon_overhead_frac(t, 0.0)) / exchange
    )
    saturated = n * params.offered_load_bps >= capacity
    rx_delta = max(p.rx_w - p.idle_w, 0.0)

    # Own traffic and the always-on beacon share.
    u_tx = lam * (rts_air + data_air)
    own_heard_s = lam * (cts_air + ack_air)
    beacon_heard_s = beacon_airtime_s(t, 0.0) / t.beacon_interval_s
    overheard_rate = (n - 1) * lam
    breakdown = {
        "idle": p.idle_w,
        "sleep": 0.0,
        "tx_delta": (p.tx_w - p.idle_w) * u_tx,
        "rx_delta": rx_delta * (own_heard_s + beacon_heard_s),
        "transitions": 0.0,
    }
    doze_frac = 0.0
    if params.power_policy == "cam":
        # Idle through every overheard reservation, hearing all of it.
        breakdown["rx_delta"] += (
            rx_delta * overheard_rate * (rts_air + cts_air + data_air + ack_air)
        )
    else:
        # Hear the RTS, then swap the idle dwell over W for a doze
        # round trip: fall + doze remainder + rise, ending at idle
        # exactly when the reservation does.
        doze_dwell = nav_s - p.sleep_latency_s - p.wake_latency_s
        breakdown["rx_delta"] += rx_delta * overheard_rate * rts_air
        breakdown["transitions"] = overheard_rate * (
            p.sleep_energy_j + p.wake_energy_j
        )
        breakdown["sleep"] = overheard_rate * p.sleep_w * doze_dwell
        breakdown["idle"] -= p.idle_w * overheard_rate * nav_s
        doze_frac = overheard_rate * doze_dwell
    power = sum(breakdown.values())
    return EnergyPrediction(
        predictor="unap-energy",
        wnic_power_w=power,
        energy_j=power * params.duration_s,
        duty_cycle=max(0.0, 1.0 - doze_frac),
        saturated=saturated,
        breakdown_w=breakdown,
        params=params.describe(),
    )


def predictor_entry(predictor: str) -> Any:
    """The :data:`repro.analytic.PREDICTORS` entry named ``predictor``."""
    from repro.analytic import PREDICTORS

    Domain(str, choices=tuple(sorted(PREDICTORS))).check("predictor", predictor)
    return PREDICTORS[predictor]


def predict(predictor: str, overrides: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Evaluate a named predictor with keyword overrides; returns the
    prediction record."""
    return predictor_entry(predictor).evaluate(overrides or {})
