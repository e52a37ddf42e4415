"""Propagation and error models for wireless links.

Provides the pieces the survey's link-adaptation techniques react to:

- deterministic path loss (:class:`FreeSpacePathLoss`,
  :class:`LogDistancePathLoss`) and :class:`LogNormalShadowing`;
- modulation-dependent bit-error-rate curves (:func:`ber`) and the
  resulting packet error rate (:func:`packet_error_rate`);
- the classic :class:`GilbertElliottChannel` two-state burst-error model,
  used by adaptive ARQ/FEC and by channel-state prediction;
- :class:`ScriptedLinkQuality`, a deterministic quality timeline used to
  reproduce the paper's "as conditions in the link change, [the Hotspot]
  seamlessly switches communication over to WLAN" scenario.
"""

from __future__ import annotations

import enum
import math
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.sim.streams import Random

_LIGHT_SPEED_M_S = 299_792_458.0


def _q_function(x: float) -> float:
    """Tail probability of the standard normal distribution."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# BER/PER memoization
#
# The SNR -> BER -> PER chain sits on the per-frame hot path (every
# Gilbert-Elliott survival draw, every link-adaptation probe), and its
# erfc/expm1 math dominates those inner loops.  Caching floats is only
# safe when it is bit-exact, so the cache serves *identical* inputs
# only: an SNR is cached when it lies exactly on a quantized grid
# (bounded key space, which is what makes an LRU meaningful — link
# budgets and scripted sweeps produce such values), and anything
# off-grid falls through to the exact math, uncached.  Disabling the
# cache must therefore never change a single returned bit; the phy test
# suite locks that equality down.

#: Linear-SNR grid spacing served from the cache; off-grid SNRs are
#: computed exactly and not cached.
BER_CACHE_QUANTUM = 1e-3

#: LRU bound: (modulation, grid-step) entries kept.
BER_CACHE_MAX_ENTRIES = 4096

_ber_cache: "OrderedDict[Tuple[Modulation, int], float]" = OrderedDict()
_ber_cache_enabled = True
_ber_cache_hits = 0
_ber_cache_misses = 0


def configure_ber_cache(enabled: bool = True) -> None:
    """Enable/disable the BER cache (clears it and its counters)."""
    global _ber_cache_enabled, _ber_cache_hits, _ber_cache_misses
    _ber_cache_enabled = bool(enabled)
    _ber_cache.clear()
    _ber_cache_hits = 0
    _ber_cache_misses = 0


def ber_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the module-level BER cache."""
    return {
        "enabled": int(_ber_cache_enabled),
        "hits": _ber_cache_hits,
        "misses": _ber_cache_misses,
        "size": len(_ber_cache),
    }


class Modulation(enum.Enum):
    """Modulation schemes with closed-form BER approximations.

    The 802.11b rates map onto DBPSK (1 Mb/s), DQPSK (2 Mb/s) and CCK
    (5.5/11 Mb/s, approximated); Bluetooth 1.x uses GFSK.
    """

    DBPSK = "dbpsk"
    DQPSK = "dqpsk"
    CCK55 = "cck5.5"
    CCK11 = "cck11"
    GFSK = "gfsk"
    BPSK = "bpsk"
    QPSK = "qpsk"


def ber(modulation: Modulation, snr_linear: float) -> float:
    """Bit error rate for ``modulation`` at linear SNR (Eb/N0-style).

    Standard textbook approximations; all return values clipped to
    ``[0, 0.5]``.  ``snr_linear`` must be non-negative.

    Results for SNRs lying exactly on the :data:`BER_CACHE_QUANTUM`
    grid are served from a bounded LRU; off-grid SNRs always take the
    exact-math path.  Both paths return bit-identical values
    (:func:`configure_ber_cache` toggles the cache without changing any
    result).
    """
    if snr_linear < 0:
        raise ValueError(f"SNR must be >= 0, got {snr_linear}")
    global _ber_cache_hits, _ber_cache_misses
    if _ber_cache_enabled:
        steps = round(snr_linear / BER_CACHE_QUANTUM)
        if steps * BER_CACHE_QUANTUM == snr_linear:
            key = (modulation, steps)
            cached = _ber_cache.get(key)
            if cached is not None:
                _ber_cache.move_to_end(key)
                _ber_cache_hits += 1
                return cached
            value = _ber_exact(modulation, snr_linear)
            _ber_cache[key] = value
            _ber_cache_misses += 1
            if len(_ber_cache) > BER_CACHE_MAX_ENTRIES:
                _ber_cache.popitem(last=False)
            return value
    return _ber_exact(modulation, snr_linear)


def _ber_exact(modulation: Modulation, snr_linear: float) -> float:
    if modulation is Modulation.DBPSK:
        value = 0.5 * math.exp(-snr_linear)
    elif modulation is Modulation.DQPSK:
        value = _q_function(math.sqrt(1.172 * snr_linear))
    elif modulation is Modulation.CCK55:
        # CCK: union-bound style approximation over 8 chips / 4 bits.
        value = 14.0 * _q_function(math.sqrt(8.0 * snr_linear / 5.5)) / 15.0
    elif modulation is Modulation.CCK11:
        value = 0.5 * (24.0 * _q_function(math.sqrt(4.0 * snr_linear / 11.0)))
    elif modulation is Modulation.GFSK:
        value = 0.5 * math.exp(-0.5 * snr_linear)
    elif modulation is Modulation.BPSK:
        value = _q_function(math.sqrt(2.0 * snr_linear))
    elif modulation is Modulation.QPSK:
        value = _q_function(math.sqrt(snr_linear))
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError(f"unknown modulation {modulation!r}")
    return min(max(value, 0.0), 0.5)


def packet_error_rate(bit_error_rate: float, bits: int) -> float:
    """Probability a ``bits``-long packet has at least one bit error.

    Assumes independent bit errors: ``1 - (1 - ber)^bits``, computed in
    log space for numerical stability at small BER.
    """
    if not 0.0 <= bit_error_rate <= 1.0:
        raise ValueError(f"BER must be in [0, 1], got {bit_error_rate}")
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    if bits == 0 or bit_error_rate == 0.0:
        return 0.0
    if bit_error_rate == 1.0:
        return 1.0
    return -math.expm1(bits * math.log1p(-bit_error_rate))


def snr_db_from_link_budget(
    tx_power_dbm: float, path_loss_db: float, noise_floor_dbm: float = -95.0
) -> float:
    """Received SNR in dB from a simple link budget."""
    return tx_power_dbm - path_loss_db - noise_floor_dbm


def db_to_linear(value_db: float) -> float:
    """Convert decibels to a linear ratio."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a linear ratio to decibels."""
    if value <= 0:
        raise ValueError(f"cannot take dB of non-positive value {value}")
    return 10.0 * math.log10(value)


class FreeSpacePathLoss:
    """Friis free-space path loss.

    Parameters
    ----------
    frequency_hz:
        Carrier frequency (2.4 GHz for both 802.11b and Bluetooth).
    """

    def __init__(self, frequency_hz: float = 2.4e9) -> None:
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        self.frequency_hz = frequency_hz

    def loss_db(self, distance_m: float) -> float:
        """Path loss in dB at ``distance_m`` (>= a centimetre, clamped)."""
        distance = max(distance_m, 0.01)
        wavelength = _LIGHT_SPEED_M_S / self.frequency_hz
        return 20.0 * math.log10(4.0 * math.pi * distance / wavelength)


class LogDistancePathLoss:
    """Log-distance path loss with configurable exponent.

    ``PL(d) = PL(d0) + 10 n log10(d / d0)``; indoor office environments
    typically use an exponent ``n`` of 3-4.
    """

    def __init__(
        self,
        exponent: float = 3.0,
        reference_distance_m: float = 1.0,
        reference_loss_db: Optional[float] = None,
        frequency_hz: float = 2.4e9,
    ) -> None:
        if exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")
        self.exponent = exponent
        self.reference_distance_m = reference_distance_m
        if reference_loss_db is None:
            reference_loss_db = FreeSpacePathLoss(frequency_hz).loss_db(
                reference_distance_m
            )
        self.reference_loss_db = reference_loss_db

    def loss_db(self, distance_m: float) -> float:
        """Path loss in dB at ``distance_m``."""
        distance = max(distance_m, self.reference_distance_m)
        return self.reference_loss_db + 10.0 * self.exponent * math.log10(
            distance / self.reference_distance_m
        )


class LogNormalShadowing:
    """Additive log-normal shadowing on top of a deterministic path loss."""

    def __init__(self, path_loss, sigma_db: float, rng: Random) -> None:
        if sigma_db < 0:
            raise ValueError("shadowing sigma must be >= 0")
        self.path_loss = path_loss
        self.sigma_db = sigma_db
        self._rng = rng

    def loss_db(self, distance_m: float) -> float:
        """One shadowed path-loss sample at ``distance_m``."""
        return self.path_loss.loss_db(distance_m) + self._rng.gauss(0.0, self.sigma_db)


class GilbertElliottChannel:
    """Two-state Markov burst-error channel.

    The channel is either *good* (low BER) or *bad* (high BER) and flips
    state with per-slot probabilities ``p_good_to_bad`` / ``p_bad_to_good``.
    Time is slotted with ``slot_s`` resolution; :meth:`advance_to` evolves
    the chain lazily to the queried simulation time, so any number of
    observers can sample it consistently.

    Parameters
    ----------
    rng:
        Dedicated random stream (keeps the chain reproducible).
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        ber_good: float = 1e-6,
        ber_bad: float = 1e-2,
        slot_s: float = 0.01,
        rng: Optional[Random] = None,
        start_good: bool = True,
    ) -> None:
        for name, p in (("p_good_to_bad", p_good_to_bad), ("p_bad_to_good", p_bad_to_good)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        for name, b in (("ber_good", ber_good), ("ber_bad", ber_bad)):
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {b}")
        if slot_s <= 0:
            raise ValueError("slot duration must be positive")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.ber_good = ber_good
        self.ber_bad = ber_bad
        self.slot_s = slot_s
        self._rng = rng or Random(0)
        self._good = start_good
        self._time = 0.0
        # (ber, bits) -> PER memo: a chain sees two BERs and a handful
        # of frame sizes, so survival draws hit this dict essentially
        # always.  Exact keys keep it bit-identical to the direct
        # computation; the global BER-cache switch also governs it.
        self._per_memo: Dict[Tuple[float, int], float] = {}

    #: Distinct (ber, bits) pairs memoised per chain instance.
    PER_MEMO_MAX_ENTRIES = 256

    @property
    def is_good(self) -> bool:
        """Channel state at the last advanced time."""
        return self._good

    @property
    def time(self) -> float:
        """Time the chain has been evolved to."""
        return self._time

    def stationary_good_probability(self) -> float:
        """Long-run fraction of time spent in the good state."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        if denom == 0.0:
            return 1.0 if self._good else 0.0
        return self.p_bad_to_good / denom

    def advance_to(self, time: float) -> bool:
        """Evolve the chain to ``time`` and return whether it is good."""
        if time < self._time:
            raise ValueError(f"cannot rewind channel: {time} < {self._time}")
        slots = int((time - self._time) / self.slot_s)
        for _ in range(slots):
            if self._good:
                if self._rng.random() < self.p_good_to_bad:
                    self._good = False
            else:
                if self._rng.random() < self.p_bad_to_good:
                    self._good = True
        self._time += slots * self.slot_s
        return self._good

    def current_ber(self) -> float:
        """BER in the current state."""
        return self.ber_good if self._good else self.ber_bad

    def packet_survives(self, bits: int, time: Optional[float] = None) -> bool:
        """Sample whether a ``bits``-long packet sent now survives."""
        if time is not None:
            self.advance_to(time)
        current = self.current_ber()
        if _ber_cache_enabled:
            key = (current, bits)
            per = self._per_memo.get(key)
            if per is None:
                per = packet_error_rate(current, bits)
                if len(self._per_memo) < self.PER_MEMO_MAX_ENTRIES:
                    self._per_memo[key] = per
        else:
            per = packet_error_rate(current, bits)
        return self._rng.random() >= per

    def expected_burst_lengths(self) -> Tuple[float, float]:
        """Mean sojourn (in slots) of the (good, bad) states."""
        good = math.inf if self.p_good_to_bad == 0 else 1.0 / self.p_good_to_bad
        bad = math.inf if self.p_bad_to_good == 0 else 1.0 / self.p_bad_to_good
        return good, bad


class RayleighBlockFading:
    """Block-fading Rayleigh channel: SNR scales by an exponential gain.

    The channel gain power ``|h|^2`` of a Rayleigh-faded link is
    exponentially distributed with unit mean.  This model redraws the
    gain every *coherence time* and holds it constant in between (block
    fading) — adequate for link-adaptation studies at walking speeds,
    where coherence times are tens of milliseconds.

    Parameters
    ----------
    coherence_time_s:
        How long one fading block lasts.
    rng:
        Dedicated random stream.
    mean_gain:
        Average linear power gain (1.0 = pure fading around the mean
        path loss).
    """

    def __init__(
        self,
        coherence_time_s: float = 0.02,
        rng: Optional[Random] = None,
        mean_gain: float = 1.0,
    ) -> None:
        if coherence_time_s <= 0:
            raise ValueError("coherence time must be positive")
        if mean_gain <= 0:
            raise ValueError("mean gain must be positive")
        self.coherence_time_s = coherence_time_s
        self.mean_gain = mean_gain
        self._rng = rng or Random(0)
        self._block = -1
        self._gain = self._draw()

    def _draw(self) -> float:
        return self._rng.expovariate(1.0 / self.mean_gain)

    def gain_at(self, time_s: float) -> float:
        """Linear power gain of the block containing ``time_s``.

        Time must not go backwards across calls (blocks are drawn
        lazily, in order).
        """
        block = int(time_s / self.coherence_time_s)
        if block < self._block:
            raise ValueError(f"cannot rewind fading: block {block} < {self._block}")
        while self._block < block:
            self._block += 1
            self._gain = self._draw()
        return self._gain

    def faded_snr_db(self, mean_snr_db: float, time_s: float) -> float:
        """Instantaneous SNR given the link-budget mean SNR."""
        return mean_snr_db + linear_to_db(max(self.gain_at(time_s), 1e-12))


class ScriptedLinkQuality:
    """A deterministic piecewise-constant link-quality timeline.

    Quality is an abstract figure in ``[0, 1]`` (1 = perfect).  The Hotspot
    resource manager thresholds it to decide interface switchovers, which
    reproduces the paper's scripted Bluetooth-degradation scenario without
    needing a live testbed.

    Parameters
    ----------
    script:
        ``(time, quality)`` pairs with non-decreasing times; quality holds
        until the next point.
    """

    def __init__(self, script: Sequence[Tuple[float, float]]) -> None:
        if not script:
            raise ValueError("script must contain at least one point")
        previous_time = -math.inf
        for time, quality in script:
            if time < previous_time:
                raise ValueError("script times must be non-decreasing")
            if not 0.0 <= quality <= 1.0:
                raise ValueError(f"quality must be in [0, 1], got {quality}")
            previous_time = time
        self._script = list(script)

    def quality(self, time: float) -> float:
        """Link quality at ``time`` (first point's value before the script)."""
        current = self._script[0][1]
        for point_time, point_quality in self._script:
            if point_time <= time:
                current = point_quality
            else:
                break
        return current

    def times(self) -> list[float]:
        """The script's change points."""
        return [time for time, _quality in self._script]


def quality_from_gilbert_elliott(
    channel: GilbertElliottChannel,
    good_quality: float = 1.0,
    bad_quality: float = 0.2,
):
    """Adapt a Gilbert–Elliott chain into a link-quality signal.

    Returns a callable ``f(time) -> quality`` suitable for
    :class:`repro.core.interfaces.ManagedInterface`: the chain is evolved
    lazily to the queried time (queries at or before the last advanced
    time return the current state rather than rewinding).
    """
    if not 0.0 <= bad_quality <= good_quality <= 1.0:
        raise ValueError("need 0 <= bad <= good <= 1")

    def quality(time_s: float) -> float:
        if time_s > channel.time:
            channel.advance_to(time_s)
        return good_quality if channel.is_good else bad_quality

    return quality


class InterferenceSchedule:
    """Scripted interference windows that derate quality and spike BER.

    Each window is ``(start_s, duration_s, severity)`` with severity in
    ``[0, 1)``; overlapping windows compound (two 0.5-severity bursts
    leave 0.25 of the link).  The schedule composes with any quality
    signal via :meth:`apply_to`, and fault injection
    (:mod:`repro.faults`) uses the same semantics when it scales
    :class:`~repro.core.interfaces.ManagedInterface` quality directly.
    """

    def __init__(self, windows: Sequence[Tuple[float, float, float]]) -> None:
        for start, duration, severity in windows:
            if start < 0:
                raise ValueError(f"window start must be >= 0, got {start}")
            if duration <= 0:
                raise ValueError(f"window duration must be positive, got {duration}")
            if not 0.0 <= severity < 1.0:
                raise ValueError(f"severity must be in [0, 1), got {severity}")
        self._windows = sorted(windows)

    def active_windows(self, time_s: float) -> list[Tuple[float, float, float]]:
        """The windows covering ``time_s`` (start inclusive, end exclusive)."""
        return [
            (start, duration, severity)
            for start, duration, severity in self._windows
            if start <= time_s < start + duration
        ]

    def quality_factor(self, time_s: float) -> float:
        """Multiplicative link-quality derating at ``time_s`` (1 = clean)."""
        factor = 1.0
        for _start, _duration, severity in self.active_windows(time_s):
            factor *= 1.0 - severity
        return factor

    def apply_to(self, quality_fn):
        """Compose: ``f(t) -> quality_fn(t) * quality_factor(t)``."""

        def quality(time_s: float) -> float:
            return quality_fn(time_s) * self.quality_factor(time_s)

        return quality

    def __len__(self) -> int:
        return len(self._windows)


def effective_bitrate_bps(nominal_bps: float, per: float) -> float:
    """Goodput after retransmission overhead at packet error rate ``per``.

    With ideal ARQ the expected number of attempts is ``1 / (1 - per)``,
    so goodput scales by ``(1 - per)``.
    """
    if not 0.0 <= per <= 1.0:
        raise ValueError(f"PER must be in [0, 1], got {per}")
    if nominal_bps < 0:
        raise ValueError("bitrate must be >= 0")
    return nominal_bps * (1.0 - per)
