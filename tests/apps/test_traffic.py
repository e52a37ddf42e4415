"""Tests for application traffic generators."""

import random
from itertools import islice

import pytest

from repro.apps import Mp3Stream, OnOffTraffic, PoissonTraffic, TraceTraffic, VideoStream
from repro.apps.traffic import MP3_FRAME_INTERVAL_S, merge_arrivals
from repro.sim import Simulator


#: The first 50 VBR arrivals of ``Mp3Stream(128 kb/s, vbr_fraction=0.2)``
#: with ``random.Random(2005)``, recorded before the frame size was hoisted
#: out of the per-frame loop.
VBR_REFERENCE_BYTES = [
    408, 346, 368, 441, 349, 407, 471, 400, 487, 352,
    353, 497, 334, 377, 400, 338, 481, 491, 459, 340,
    401, 385, 386, 333, 425, 476, 466, 378, 346, 412,
    467, 408, 466, 468, 499, 447, 476, 435, 481, 412,
    457, 387, 370, 338, 433, 409, 422, 489, 475, 439,
]
VBR_REFERENCE_TIMES = [
    0.0, 0.026122448979591838, 0.052244897959183675,
    0.0783673469387755, 0.10448979591836735, 0.1306122448979592,
    0.15673469387755104, 0.18285714285714288, 0.20897959183673473,
    0.23510204081632657, 0.2612244897959184, 0.2873469387755102,
    0.313469387755102, 0.33959183673469384, 0.36571428571428566,
    0.3918367346938775, 0.4179591836734693, 0.4440816326530611,
    0.4702040816326529, 0.49632653061224474, 0.5224489795918366,
    0.5485714285714284, 0.5746938775510202, 0.600816326530612,
    0.6269387755102038, 0.6530612244897956, 0.6791836734693875,
    0.7053061224489793, 0.7314285714285711, 0.7575510204081629,
    0.7836734693877547, 0.8097959183673465, 0.8359183673469384,
    0.8620408163265302, 0.888163265306122, 0.9142857142857138,
    0.9404081632653056, 0.9665306122448974, 0.9926530612244893,
    1.0187755102040812, 1.0448979591836731, 1.071020408163265,
    1.097142857142857, 1.123265306122449, 1.1493877551020408,
    1.1755102040816328, 1.2016326530612247, 1.2277551020408166,
    1.2538775510204085, 1.2800000000000005,
]


class TestMp3Stream:
    def test_frame_cadence(self):
        stream = Mp3Stream(bitrate_bps=128_000.0)
        arrivals = list(stream.arrivals(1.0))
        # ~38 frames per second at 26.12 ms spacing.
        assert 37 <= len(arrivals) <= 39
        gaps = [b[0] - a[0] for a, b in zip(arrivals, arrivals[1:])]
        assert all(g == pytest.approx(MP3_FRAME_INTERVAL_S) for g in gaps)

    def test_mean_rate_matches_bitrate(self):
        stream = Mp3Stream(bitrate_bps=128_000.0)
        assert stream.mean_rate_bps(60.0) == pytest.approx(128_000.0, rel=0.02)

    def test_higher_bitrate_bigger_frames(self):
        low = Mp3Stream(bitrate_bps=128_000.0)
        high = Mp3Stream(bitrate_bps=320_000.0)
        assert high.frame_bytes > low.frame_bytes

    def test_vbr_varies_sizes(self):
        stream = Mp3Stream(
            bitrate_bps=128_000.0, vbr_fraction=0.2, rng=random.Random(1)
        )
        sizes = {nbytes for _t, nbytes, _k in stream.arrivals(5.0)}
        assert len(sizes) > 1

    def test_vbr_draw_order_is_pinned(self):
        """One ``uniform`` draw per frame, in frame order, at a fixed seed."""
        rng = random.Random(2005)
        stream = Mp3Stream(bitrate_bps=128_000.0, vbr_fraction=0.2, rng=rng)
        arrivals = [(t, n) for t, n, _k in islice(stream.arrivals(10.0), 50)]
        assert [n for _t, n in arrivals] == VBR_REFERENCE_BYTES
        assert [t for t, _n in arrivals] == VBR_REFERENCE_TIMES
        reference = random.Random(2005)
        for _ in range(50):
            reference.uniform(-0.2, 0.2)
        assert rng.random() == reference.random()

    def test_every_cbr_arrival_carries_frame_bytes(self):
        stream = Mp3Stream(bitrate_bps=320_000.0)
        sizes = {n for _t, n, _k in stream.arrivals(10.0)}
        assert sizes == {stream.frame_bytes} == {1044}

    def test_all_arrivals_tagged_audio(self):
        stream = Mp3Stream()
        assert all(kind == "audio" for _t, _n, kind in stream.arrivals(1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            Mp3Stream(bitrate_bps=0.0)
        with pytest.raises(ValueError):
            Mp3Stream(vbr_fraction=1.0, rng=random.Random(0))
        with pytest.raises(ValueError):
            Mp3Stream(vbr_fraction=0.2)  # rng required


class TestPoisson:
    def test_mean_rate(self):
        source = PoissonTraffic(
            mean_interarrival_s=0.1, packet_bytes=100, rng=random.Random(2)
        )
        arrivals = list(source.arrivals(200.0))
        assert len(arrivals) == pytest.approx(2000, rel=0.1)

    def test_times_ordered(self):
        source = PoissonTraffic(0.05, 100, random.Random(3))
        times = [t for t, _n, _k in source.arrivals(10.0)]
        assert times == sorted(times)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonTraffic(0.0, 100, random.Random(0))
        with pytest.raises(ValueError):
            PoissonTraffic(1.0, 0, random.Random(0))


class TestOnOff:
    def test_bursty_structure(self):
        source = OnOffTraffic(random.Random(4), mean_on_s=1.0, mean_off_s=5.0)
        times = [t for t, _n, _k in source.arrivals(200.0)]
        assert times, "expected some traffic"
        gaps = [b - a for a, b in zip(times, times[1:])]
        # A mix of tiny in-burst gaps and long think times.
        assert min(gaps) < 0.02
        assert max(gaps) > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OnOffTraffic(random.Random(0), mean_on_s=0.0)


class TestVideo:
    def test_gop_structure(self):
        source = VideoStream(frame_rate_fps=10.0, gop_length=5)
        arrivals = list(source.arrivals(1.0))
        kinds = [k for _t, _n, k in arrivals]
        assert kinds[0] == "video-i"
        assert kinds[1] == "video-p"
        assert kinds[5] == "video-i"

    def test_i_frames_bigger(self):
        source = VideoStream()
        sizes = {k: n for _t, n, k in source.arrivals(2.0)}
        assert sizes["video-i"] > sizes["video-p"]

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoStream(frame_rate_fps=0.0)
        with pytest.raises(ValueError):
            VideoStream(gop_length=0)


class TestTrace:
    def test_replays_sorted(self):
        source = TraceTraffic([(2.0, 10, "x"), (1.0, 20, "y")])
        arrivals = list(source.arrivals(10.0))
        assert arrivals == [(1.0, 20, "y"), (2.0, 10, "x")]

    def test_until_is_exclusive(self):
        source = TraceTraffic([(1.0, 10, "x"), (5.0, 10, "x")])
        assert len(list(source.arrivals(5.0))) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceTraffic([(1.0, 0, "x")])
        with pytest.raises(ValueError):
            TraceTraffic([(-1.0, 10, "x")])


class TestPump:
    def test_des_pump_delivers_at_right_times(self):
        sim = Simulator()
        source = TraceTraffic([(0.5, 100, "a"), (2.5, 200, "b")])
        seen = []
        source.start(sim, lambda n, k: seen.append((sim.now, n, k)), until_s=10.0)
        sim.run(until=10.0)
        assert seen == [(0.5, 100, "a"), (2.5, 200, "b")]


def test_merge_arrivals_ordered():
    a = TraceTraffic([(1.0, 10, "a"), (3.0, 10, "a")])
    b = TraceTraffic([(2.0, 20, "b")])
    merged = merge_arrivals([a, b], until_s=10.0)
    assert [t for t, _n, _k in merged] == [1.0, 2.0, 3.0]
