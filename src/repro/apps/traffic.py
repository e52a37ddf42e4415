"""Application traffic generators.

All sources share one shape: :meth:`arrivals` lazily yields
``(time_s, nbytes, kind)`` tuples with non-decreasing times, which the
analytical benches, the DES pump (:meth:`TrafficSource.start`) and the
lazy :class:`ArrivalFeed` consume.  The MP3 model matches the paper's
evaluation workload ("high-quality MP3 audio"): MPEG-1 Layer III frames
carry 1152 samples, so at 44.1 kHz a frame lands every ~26.12 ms and
carries ``bitrate × 0.02612 / 8`` bytes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.sim.streams import Random

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: One traffic arrival: (time in seconds, payload bytes, kind tag).
Arrival = Tuple[float, int, str]

#: Samples per MPEG-1 Layer III frame / the standard sample rate.
MP3_FRAME_INTERVAL_S = 1152 / 44_100.0

#: Arrivals whose timeouts the pump queues in one batch.
_PUMP_CHUNK = 256


class TrafficSource:
    """Base class wiring an arrival stream into the simulator."""

    def arrivals(self, until_s: float) -> Iterator[Arrival]:
        """Yield ``(time, nbytes, kind)`` with time < until_s, ordered."""
        raise NotImplementedError

    def total_bytes(self, until_s: float) -> int:
        """Payload volume generated up to ``until_s``."""
        return sum(nbytes for _t, nbytes, _k in self.arrivals(until_s))

    def mean_rate_bps(self, until_s: float) -> float:
        """Average payload rate over ``[0, until_s)``."""
        if until_s <= 0:
            return 0.0
        return self.total_bytes(until_s) * 8.0 / until_s

    def start(
        self,
        sim: "Simulator",
        sink: Callable[[int, str], None],
        until_s: float,
    ):
        """Pump arrivals into ``sink(nbytes, kind)`` in simulated time.

        Arrivals are batched in chunks whose timeouts are queued together
        with :meth:`Simulator.timeout_at`: the sleep before each arrival
        is ``now + (t - now)``, and since the pump wakes exactly at each
        hop's fire time the whole chunk's fire times follow from the
        current clock before any hop runs — bit-for-bit the same instants
        the one-timeout-per-arrival pump produced.
        """

        def drain(chunk):
            now = sim._now
            hops = []
            flags = []
            for time_s, _nbytes, _kind in chunk:
                if time_s > now:
                    now = now + (time_s - now)  # mirrors Timeout's fire time
                    hops.append(now)
                    flags.append(True)
                else:
                    flags.append(False)
            timeouts = iter([sim.timeout_at(t) for t in hops])
            for sleeps, (_time_s, nbytes, kind) in zip(flags, chunk):
                if sleeps:
                    yield next(timeouts)
                sink(nbytes, kind)

        def pump():
            chunk = []
            for arrival in self.arrivals(until_s):
                chunk.append(arrival)
                if len(chunk) >= _PUMP_CHUNK:
                    yield from drain(chunk)
                    chunk = []
            if chunk:
                yield from drain(chunk)

        return sim.process(pump(), name=f"{type(self).__name__}-pump")


def _pull_plans(arrivals: Iterator[Arrival], now: float):
    """The pump's draws from ``arrivals`` after a start at ``now``, one per
    dispatch where it draws: ``(landed, fires, offsets, sums, sleeps)``.

    ``landed``: bytes due before the draw's first sleep (sunk at once).
    Each later arrival of the chunk that sleeps has a fire instant and a
    sequence number offset from the draw's first; ``sums[i]`` is the
    bytes of the first i.  The chunk closes at ``fires[-1]``, offset
    ``sleeps``; ``sleeps == 0`` means the source ran dry.
    """
    landed = 0
    while True:
        fires: List[float] = []
        offsets: List[int] = []
        sums = [0]
        add_fire, add_offset, add_sum = fires.append, offsets.append, sums.append
        total = sleeps = drawn = 0
        for time_s, nbytes, _kind in islice(arrivals, _PUMP_CHUNK):
            drawn += 1
            if nbytes <= 0:
                raise ValueError("ingest size must be positive")
            if time_s > now:
                now = now + (time_s - now)  # mirrors Timeout's fire time
                sleeps += 1
            if not sleeps:
                landed += nbytes  # due before the chunk's first sleep
            else:
                add_fire(now)
                add_offset(sleeps)
                total += nbytes
                add_sum(total)
        if sleeps or drawn < _PUMP_CHUNK:
            # Tuples: cached plans are shared by every feed of their key.
            yield landed, tuple(fires), tuple(offsets), tuple(sums), sleeps
            if not sleeps:
                return
            landed = 0


def _resumed(arrivals: Iterator[Arrival], start_s: float) -> Iterator[Arrival]:
    """``arrivals`` without those due at or before ``start_s``."""
    return (arrival for arrival in arrivals if arrival[0] > start_s)


@lru_cache(maxsize=8)
def _cbr_plans(bitrate_bps: float, until_s: float, start_s: float, resumed: bool) -> tuple:
    """The pull plans of a CBR :class:`Mp3Stream` started (or, with
    ``resumed``, resumed) at ``start_s``: a pure function of its
    arguments, so drawn once per process."""
    arrivals = Mp3Stream(bitrate_bps).arrivals(until_s)
    if resumed:
        arrivals = _resumed(arrivals, start_s)
    return tuple(_pull_plans(arrivals, start_s))


class ArrivalFeed:
    """A source's arrivals, credited only when their total is read.

    The lazy twin of :meth:`TrafficSource.start` for a sink that only
    adds bytes up (the Hotspot proxy's per-client backlog).  The feed
    draws arrivals in the pump's chunks, at the pump's instants, and
    gives each arrival the calendar entry ``(fire, seq)`` of the
    pump dispatch that would have sunk it.  It queues only the pump's
    bootstrap and, per chunk, the timeout at the chunk's last fire
    instant (where the pump draws the next chunk); the other sequence
    numbers, and the pump process's completion once the source runs
    dry, are reserved but never queued.  ``events_scheduled`` and every
    tie-break therefore match the pump's, at a fraction of its dispatches.

    The draws are planned by :func:`_pull_plans`; a CBR MP3 stream's
    plans are shared by every feed of its bitrate, run length, start
    instant and ``resumed`` flag in the process (:func:`_cbr_plans`).

    ``resumed=True`` starts the feed of a client whose earlier arrivals
    were credited elsewhere (a shard world adopting a migrant, whose
    source replays the same seeded substream from t=0): arrivals at or
    before the construction instant are dropped before anything is
    planned, so none is credited twice.

    :meth:`settle` credits the arrivals whose entry sorts at or before
    the simulator's dispatching entry — outside :meth:`Simulator.run`,
    those with ``fire <= now`` — which are exactly those the pump would
    have sunk by then.
    """

    def __init__(
        self, source: TrafficSource, sim: "Simulator", until_s: float, resumed: bool = False
    ) -> None:
        self.sim = sim
        now = sim.now
        if type(source) is Mp3Stream and not source.vbr_fraction:
            self._plans = iter(_cbr_plans(source.bitrate_bps, until_s, now, resumed))
        else:
            arrivals = source.arrivals(until_s)
            if resumed:
                arrivals = _resumed(arrivals, now)
            self._plans = _pull_plans(arrivals, now)
        #: Fire instant and sequence offset of each pending arrival in
        #: the current chunk, numbered from ``_base``; ``_sums[i]`` is
        #: the bytes of its first i.
        self._fires: Tuple[float, ...] = ()
        self._offsets: Tuple[int, ...] = ()
        self._sums: Tuple[int, ...] = (0,)
        self._base = 0
        #: Arrivals of the current chunk credited so far.
        self._credited = 0
        #: Bytes already landed but not yet returned by :meth:`settle`.
        self._landed = 0
        sim.timeout(0.0).callbacks.append(self._pull)

    def _pull(self, _event) -> None:
        """Draw chunks as the pump would at this dispatch, up to the next
        one that sleeps (or the end of the source)."""
        sim = self.sim
        # Every arrival drawn so far sorts before this dispatch.
        self._landed += self._sums[-1] - self._sums[self._credited]
        landed, fires, offsets, sums, sleeps = next(self._plans)
        self._landed += landed
        base = sim._seq
        if sleeps:
            # Reserve every sleep's number but the last, which the
            # chunk's closing timeout takes.
            sim._seq = base + sleeps - 1
            sim.timeout_at(fires[-1]).callbacks.append(self._pull)
        else:
            sim._seq = base + 1  # the drained pump process's completion
        self._fires, self._offsets, self._sums = fires, offsets, sums
        self._base = base
        self._credited = 0

    def settle(self) -> int:
        """Bytes arrived since the previous call."""
        sim = self.sim
        fires = self._fires
        start = self._credited
        entry = sim._dispatching
        if entry is None:
            end = bisect_right(fires, sim._now, start)
        else:
            when, seq, _event = entry
            end = bisect_left(fires, when, start)
            offsets = self._offsets
            base = self._base
            # Arrivals of this instant sorting at or before the dispatching
            # entry (its own included) have been dispatched.
            while end < len(fires) and fires[end] == when and base + offsets[end] <= seq:
                end += 1
        landed = self._landed + self._sums[end] - self._sums[start]
        self._landed = 0
        self._credited = end
        return landed


class Mp3Stream(TrafficSource):
    """Constant-bitrate MP3 audio (optionally mildly VBR).

    Parameters
    ----------
    bitrate_bps:
        Encoded audio rate: 128 kb/s is "high quality" for the paper's
        2005-era evaluation; 320 kb/s is the format maximum.
    vbr_fraction:
        0 gives strict CBR; 0.2 varies frame sizes +/-20 %.
    rng:
        Required when ``vbr_fraction > 0``.
    """

    def __init__(
        self,
        bitrate_bps: float = 128_000.0,
        vbr_fraction: float = 0.0,
        rng: Optional[Random] = None,
    ) -> None:
        if bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")
        if not 0.0 <= vbr_fraction < 1.0:
            raise ValueError("VBR fraction must be in [0, 1)")
        if vbr_fraction > 0 and rng is None:
            raise ValueError("VBR mode needs an rng")
        self.bitrate_bps = bitrate_bps
        self.vbr_fraction = vbr_fraction
        self.rng = rng

    @property
    def frame_bytes(self) -> int:
        """Nominal bytes per MP3 frame."""
        return max(int(self.bitrate_bps * MP3_FRAME_INTERVAL_S / 8.0), 1)

    def arrivals(self, until_s: float) -> Iterator[Arrival]:
        frame_bytes = self.frame_bytes
        vbr = self.vbr_fraction
        time_s = 0.0
        while time_s < until_s:
            nbytes = frame_bytes
            if vbr > 0:
                scale = 1.0 + self.rng.uniform(-vbr, vbr)
                nbytes = max(int(nbytes * scale), 1)
            yield (time_s, nbytes, "audio")
            time_s += MP3_FRAME_INTERVAL_S


class PoissonTraffic(TrafficSource):
    """Memoryless packet arrivals with fixed packet size."""

    def __init__(
        self,
        mean_interarrival_s: float,
        packet_bytes: int,
        rng: Random,
        kind: str = "data",
    ) -> None:
        if mean_interarrival_s <= 0:
            raise ValueError("mean interarrival must be positive")
        if packet_bytes <= 0:
            raise ValueError("packet size must be positive")
        self.mean_interarrival_s = mean_interarrival_s
        self.packet_bytes = packet_bytes
        self.rng = rng
        self.kind = kind

    def arrivals(self, until_s: float) -> Iterator[Arrival]:
        time_s = self.rng.expovariate(1.0 / self.mean_interarrival_s)
        while time_s < until_s:
            yield (time_s, self.packet_bytes, self.kind)
            time_s += self.rng.expovariate(1.0 / self.mean_interarrival_s)


class OnOffTraffic(TrafficSource):
    """Web-browsing style: bursts of downloads separated by think times.

    During an ON period, packets arrive back-to-back at
    ``packet_interval_s``; OFF periods are exponential think times.
    """

    def __init__(
        self,
        rng: Random,
        mean_on_s: float = 2.0,
        mean_off_s: float = 10.0,
        packet_bytes: int = 1460,
        packet_interval_s: float = 0.01,
    ) -> None:
        if mean_on_s <= 0 or mean_off_s <= 0:
            raise ValueError("ON/OFF means must be positive")
        if packet_bytes <= 0 or packet_interval_s <= 0:
            raise ValueError("packet parameters must be positive")
        self.rng = rng
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.packet_bytes = packet_bytes
        self.packet_interval_s = packet_interval_s

    def arrivals(self, until_s: float) -> Iterator[Arrival]:
        time_s = self.rng.expovariate(1.0 / self.mean_off_s)
        while time_s < until_s:
            on_length = self.rng.expovariate(1.0 / self.mean_on_s)
            burst_end = time_s + on_length
            while time_s < min(burst_end, until_s):
                yield (time_s, self.packet_bytes, "web")
                time_s += self.packet_interval_s
            time_s = burst_end + self.rng.expovariate(1.0 / self.mean_off_s)


class VideoStream(TrafficSource):
    """GOP-structured video: periodic large I-frames, small P-frames.

    Interleave with :class:`Mp3Stream` to feed the drop-video-keep-audio
    proxy experiment.
    """

    def __init__(
        self,
        frame_rate_fps: float = 15.0,
        i_frame_bytes: int = 12_000,
        p_frame_bytes: int = 2_500,
        gop_length: int = 15,
    ) -> None:
        if frame_rate_fps <= 0:
            raise ValueError("frame rate must be positive")
        if i_frame_bytes <= 0 or p_frame_bytes <= 0:
            raise ValueError("frame sizes must be positive")
        if gop_length < 1:
            raise ValueError("GOP length must be >= 1")
        self.frame_rate_fps = frame_rate_fps
        self.i_frame_bytes = i_frame_bytes
        self.p_frame_bytes = p_frame_bytes
        self.gop_length = gop_length

    def arrivals(self, until_s: float) -> Iterator[Arrival]:
        interval = 1.0 / self.frame_rate_fps
        index = 0
        time_s = 0.0
        while time_s < until_s:
            if index % self.gop_length == 0:
                yield (time_s, self.i_frame_bytes, "video-i")
            else:
                yield (time_s, self.p_frame_bytes, "video-p")
            index += 1
            time_s += interval


class TraceTraffic(TrafficSource):
    """Replay an explicit arrival list (for tests and captured traces)."""

    def __init__(self, trace: Iterable[Arrival]) -> None:
        self.trace: List[Arrival] = sorted(trace, key=lambda a: a[0])
        for _time, nbytes, _kind in self.trace:
            if nbytes <= 0:
                raise ValueError("trace packet sizes must be positive")
        if any(t < 0 for t, _n, _k in self.trace):
            raise ValueError("trace times must be >= 0")

    def arrivals(self, until_s: float) -> Iterator[Arrival]:
        for time_s, nbytes, kind in self.trace:
            if time_s >= until_s:
                break
            yield (time_s, nbytes, kind)


#: Registry behind :func:`build_source`: kind -> factory taking
#: ``(bitrate_bps, rng, options)``.  Register new kinds to make them
#: addressable from a :class:`repro.build.TrafficSpec`.
_SOURCE_KINDS: dict = {}


def register_traffic_kind(kind: str, factory) -> None:
    """Register ``factory(bitrate_bps, rng, options) -> TrafficSource``."""
    existing = _SOURCE_KINDS.get(kind)
    if existing is not None and existing is not factory:
        raise ValueError(f"traffic kind {kind!r} already registered")
    _SOURCE_KINDS[kind] = factory


def traffic_kinds() -> List[str]:
    """The registered source kinds, sorted."""
    return sorted(_SOURCE_KINDS)


def build_source(
    kind: str = "mp3",
    bitrate_bps: float = 128_000.0,
    rng: Optional[Random] = None,
    options: Optional[dict] = None,
) -> TrafficSource:
    """Construct a source from declarative data (kind + options).

    The composition layer (:mod:`repro.build`) calls this with each
    node's ``TrafficSpec``; ``options`` pass through to the source's
    constructor, ``rng`` is the node's seeded substream (ignored by
    deterministic sources).
    """
    factory = _SOURCE_KINDS.get(kind)
    if factory is None:
        raise ValueError(
            f"unknown traffic kind {kind!r}; known: {traffic_kinds()}"
        )
    return factory(bitrate_bps, rng, dict(options or {}))


register_traffic_kind(
    "mp3",
    lambda bitrate_bps, rng, options: Mp3Stream(
        bitrate_bps=bitrate_bps, rng=rng, **options
    ),
)
def _poisson_from_bitrate(bitrate_bps, rng, options):
    # Default the arrival process to the requested mean bitrate so a bare
    # ``TrafficSpec(kind="poisson", bitrate_bps=...)`` is enough.
    packet_bytes = options.setdefault("packet_bytes", 1_000)
    options.setdefault("mean_interarrival_s", packet_bytes * 8.0 / bitrate_bps)
    return PoissonTraffic(rng=rng, **options)


register_traffic_kind("poisson", _poisson_from_bitrate)
register_traffic_kind(
    "onoff",
    lambda bitrate_bps, rng, options: OnOffTraffic(rng=rng, **options),
)
register_traffic_kind(
    "video",
    lambda bitrate_bps, rng, options: VideoStream(**options),
)
register_traffic_kind(
    "trace",
    lambda bitrate_bps, rng, options: TraceTraffic(**options),
)


def merge_arrivals(sources: Iterable[TrafficSource], until_s: float) -> List[Arrival]:
    """Time-merge several sources into one ordered arrival list."""
    merged: List[Arrival] = []
    for source in sources:
        merged.extend(source.arrivals(until_s))
    merged.sort(key=lambda a: a[0])
    return merged
