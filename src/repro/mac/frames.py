"""802.11 frame representation and PHY/MAC timing constants.

Times follow the 802.11b (DSSS) PHY: 20 µs slots, 10 µs SIFS, long PLCP
preamble of 192 µs sent at 1 Mb/s regardless of the payload rate.  These
constants set the fixed per-frame overhead that makes *aggregation* and
*large scheduled bursts* (the paper's §2) energetically attractive.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

#: Broadcast address understood by :class:`repro.mac.medium.Medium`.
BROADCAST = "*"

#: Approximate beacon body length in bytes before the TIM entries
#: (header + fixed fields); each TIM entry adds one byte.
BEACON_BASE_BYTES = 50

#: Default PSM wake guard: how long before the expected beacon a dozing
#: station starts waking its radio.
PSM_WAKE_GUARD_S = 0.004

#: Default PSM poll-data timeout: how long a station waits for polled
#: data before it re-polls.
PSM_POLL_DATA_TIMEOUT_S = 0.050


class FrameKind(enum.Enum):
    """The frame types the simulation distinguishes."""

    DATA = "data"
    ACK = "ack"
    RTS = "rts"
    CTS = "cts"
    BEACON = "beacon"
    PS_POLL = "ps-poll"
    SCHEDULE = "schedule"  # EC-MAC schedule broadcast
    CONTROL = "control"


@dataclass(frozen=True)
class Dot11Timing:
    """802.11b DSSS timing and contention parameters."""

    slot_s: float = 20e-6
    sifs_s: float = 10e-6
    #: PLCP preamble + header, always at the basic rate (long preamble).
    plcp_overhead_s: float = 192e-6
    #: MAC header + FCS bytes on data frames.
    mac_header_bytes: int = 28
    #: ACK frame body length in bytes.
    ack_bytes: int = 14
    #: RTS / CTS control frame lengths in bytes.
    rts_bytes: int = 20
    cts_bytes: int = 14
    #: PS-Poll frame length in bytes.
    ps_poll_bytes: int = 20
    #: Rate for control frames and PLCP payloads (1 Mb/s basic rate).
    basic_rate_bps: float = 1_000_000.0
    cw_min: int = 31
    cw_max: int = 1023
    retry_limit: int = 7
    #: Beacon interval: 100 TU ~ 102.4 ms, rounded for readability.
    beacon_interval_s: float = 0.1

    @property
    def difs_s(self) -> float:
        """DIFS = SIFS + 2 slots."""
        return self.sifs_s + 2.0 * self.slot_s

    def ack_airtime_s(self) -> float:
        """Time an ACK occupies the medium."""
        return self.plcp_overhead_s + self.ack_bytes * 8.0 / self.basic_rate_bps

    def ack_timeout_s(self) -> float:
        """How long a transmitter waits for an ACK before retrying."""
        return self.sifs_s + self.ack_airtime_s() + self.slot_s

    def rts_airtime_s(self) -> float:
        """Time an RTS occupies the medium."""
        return self.plcp_overhead_s + self.rts_bytes * 8.0 / self.basic_rate_bps

    def cts_airtime_s(self) -> float:
        """Time a CTS occupies the medium."""
        return self.plcp_overhead_s + self.cts_bytes * 8.0 / self.basic_rate_bps

    def cts_timeout_s(self) -> float:
        """How long an RTS sender waits for the CTS before re-contending."""
        return self.sifs_s + self.cts_airtime_s() + self.slot_s

    def data_airtime_s(self, payload_bytes: int, rate_bps: float) -> float:
        """Airtime of a data frame with ``payload_bytes`` at ``rate_bps``."""
        if payload_bytes < 0:
            raise ValueError("payload must be >= 0 bytes")
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        body_bits = (payload_bytes + self.mac_header_bytes) * 8.0
        return self.plcp_overhead_s + body_bits / rate_bps


_frame_sequence = itertools.count()


@dataclass
class Frame:
    """A MAC frame in flight.

    Attributes
    ----------
    kind:
        Frame type.
    source, destination:
        Station addresses (strings); ``"*"`` broadcasts.
    payload_bytes:
        MAC service data unit length (0 for control frames).
    rate_bps:
        PHY rate the body is sent at.
    more_data:
        802.11 more-data bit: the AP has further buffered frames for this
        station (drives the PS-Poll loop).
    nav_duration_s:
        802.11 duration field: how long (after this frame ends) the
        medium is reserved for the remainder of the exchange.  Stations
        overhearing a frame not addressed to them set their NAV from it.
    payload:
        Opaque upper-layer object carried by the frame.
    """

    kind: FrameKind
    source: str
    destination: str
    payload_bytes: int = 0
    rate_bps: float = 1_000_000.0
    more_data: bool = False
    nav_duration_s: float = 0.0
    payload: Any = None
    seq: int = field(default_factory=lambda: next(_frame_sequence))

    def airtime_s(self, timing: Dot11Timing) -> float:
        """Time this frame occupies the medium under ``timing``."""
        if self.kind is FrameKind.ACK:
            return timing.ack_airtime_s()
        if self.kind is FrameKind.RTS:
            return timing.rts_airtime_s()
        if self.kind is FrameKind.CTS:
            return timing.cts_airtime_s()
        if self.kind is FrameKind.PS_POLL:
            return (
                timing.plcp_overhead_s
                + timing.ps_poll_bytes * 8.0 / timing.basic_rate_bps
            )
        return timing.data_airtime_s(self.payload_bytes, self.rate_bps)

    @property
    def total_bits(self) -> int:
        """Bits on air for error-model purposes (header + payload)."""
        return (self.payload_bytes + 28) * 8

    def __repr__(self) -> str:
        return (
            f"<Frame #{self.seq} {self.kind.value} {self.source}->"
            f"{self.destination} {self.payload_bytes}B>"
        )
