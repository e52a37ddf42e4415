"""Propagation and error models for wireless links.

Provides the pieces the survey's link-adaptation techniques react to:

- deterministic path loss (:class:`FreeSpacePathLoss`,
  :class:`LogDistancePathLoss`) and link-budget SNR
  (:func:`snr_db_from_link_budget`);
- the packet error rate of a bit error rate (:func:`packet_error_rate`);
- the classic :class:`GilbertElliottChannel` two-state burst-error model,
  used by adaptive ARQ/FEC and by channel-state prediction;
- :class:`ScriptedLinkQuality`, a deterministic quality timeline used to
  reproduce the paper's "as conditions in the link change, [the Hotspot]
  seamlessly switches communication over to WLAN" scenario.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from repro.sim.streams import Random

_LIGHT_SPEED_M_S = 299_792_458.0


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
        # computation.
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
        key = (self.current_ber(), bits)
        per = self._per_memo.get(key)
        if per is None:
            per = packet_error_rate(*key)
            if len(self._per_memo) < self.PER_MEMO_MAX_ENTRIES:
                self._per_memo[key] = per
        return self._rng.random() >= per

    def expected_burst_lengths(self) -> Tuple[float, float]:
        """Mean sojourn (in slots) of the (good, bad) states."""
        good = math.inf if self.p_good_to_bad == 0 else 1.0 / self.p_good_to_bad
        bad = math.inf if self.p_bad_to_good == 0 else 1.0 / self.p_bad_to_good
        return good, bad


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
