"""Proxy-based application adaptation.

The survey (§1): *"Most proxy adaptations to date have been relatively
simple, such as dropping video content and delivering only audio in
adverse conditions."*

:class:`MediaProxy` implements exactly that: packets tagged by kind flow
through; when the link-quality signal falls below a threshold the proxy
drops video kinds and forwards audio only.  It records bytes saved so the
energy benefit downstream (smaller bursts → shorter radio on-time) can be
attributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.apps.traffic import Arrival

#: Quality signal: ``f(time) -> quality in [0, 1]``.
QualitySignal = Callable[[float], float]

#: Kinds treated as droppable video by default.
VIDEO_KINDS = ("video-i", "video-p", "video")


@dataclass
class ProxyStats:
    """Forward/drop accounting."""

    packets_in: int = 0
    bytes_in: int = 0
    packets_forwarded: int = 0
    bytes_forwarded: int = 0
    packets_dropped: int = 0
    bytes_dropped: int = 0
    adverse_time_entries: int = 0

    @property
    def bytes_saved_fraction(self) -> float:
        if self.bytes_in == 0:
            return 0.0
        return self.bytes_dropped / self.bytes_in


class MediaProxy:
    """Drop video, keep audio, when the channel turns adverse.

    Parameters
    ----------
    quality_signal:
        Link quality over time (e.g.
        :class:`repro.phy.channel.ScriptedLinkQuality.quality`).
    adverse_threshold:
        Below this quality the proxy enters adverse mode.
    video_kinds:
        Arrival kinds to drop in adverse mode.
    """

    def __init__(
        self,
        quality_signal: QualitySignal,
        adverse_threshold: float = 0.5,
        video_kinds: Sequence[str] = VIDEO_KINDS,
    ) -> None:
        if not 0.0 <= adverse_threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.quality_signal = quality_signal
        self.adverse_threshold = adverse_threshold
        self.video_kinds = frozenset(video_kinds)
        self.stats = ProxyStats()
        self._was_adverse = False

    def is_adverse(self, time_s: float) -> bool:
        return self.quality_signal(time_s) < self.adverse_threshold

    def filter(self, arrival: Arrival) -> Optional[Arrival]:
        """Pass one packet through; None means it was dropped."""
        time_s, nbytes, kind = arrival
        self.stats.packets_in += 1
        self.stats.bytes_in += nbytes
        adverse = self.is_adverse(time_s)
        if adverse and not self._was_adverse:
            self.stats.adverse_time_entries += 1
        self._was_adverse = adverse
        if adverse and kind in self.video_kinds:
            self.stats.packets_dropped += 1
            self.stats.bytes_dropped += nbytes
            return None
        self.stats.packets_forwarded += 1
        self.stats.bytes_forwarded += nbytes
        return arrival

    def filter_stream(self, arrivals: Iterable[Arrival]) -> List[Arrival]:
        """Filter a whole arrival list, preserving order."""
        out: List[Arrival] = []
        for arrival in arrivals:
            kept = self.filter(arrival)
            if kept is not None:
                out.append(kept)
        return out
