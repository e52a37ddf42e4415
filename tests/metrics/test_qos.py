"""Tests for the playout buffer QoS model."""

import pytest

from repro.metrics import PlayoutBuffer


def make_buffer(**kwargs):
    defaults = dict(drain_rate_bps=128_000.0, prebuffer_s=1.0)
    defaults.update(kwargs)
    return PlayoutBuffer(**defaults)


class TestPlayoutBuffer:
    def test_playback_starts_after_prebuffer(self):
        buffer = make_buffer()
        buffer.deliver(0.0, 10_000)  # < 16 kB prebuffer
        assert not buffer.playing
        buffer.deliver(0.5, 10_000)
        assert buffer.playing
        assert buffer.started_at_s == 0.5

    def test_no_drain_before_playback(self):
        buffer = make_buffer()
        buffer.deliver(0.0, 1_000)
        buffer.advance_to(100.0)
        assert buffer.level_bytes == 1_000

    def test_steady_drain_during_playback(self):
        buffer = make_buffer()
        buffer.deliver(0.0, 32_000)  # 2 s of audio
        buffer.advance_to(1.0)
        assert buffer.level_bytes == pytest.approx(16_000)

    def test_underrun_detected_with_duration(self):
        buffer = make_buffer()
        buffer.deliver(0.0, 16_000)  # exactly 1 s of audio
        summary = buffer.finish(3.0)
        assert summary.underruns == 1
        assert summary.underrun_time_s == pytest.approx(2.0)

    def test_refill_clears_stall(self):
        buffer = make_buffer()
        buffer.deliver(0.0, 16_000)
        buffer.deliver(2.0, 32_000)  # stalled from t=1 to t=2
        summary = buffer.finish(3.0)
        assert summary.underruns == 1
        assert summary.underrun_time_s == pytest.approx(1.0)
        # After the refill, playback drained one more second.
        assert buffer.level_bytes == pytest.approx(16_000)

    def test_capacity_truncates_overflow(self):
        buffer = make_buffer(capacity_bytes=20_000)
        buffer.deliver(0.0, 50_000)
        assert buffer.level_bytes == 20_000
        assert buffer.overflow_bytes == 30_000

    def test_qos_maintained_when_supply_keeps_up(self):
        buffer = make_buffer()
        for i in range(20):
            buffer.deliver(i * 0.5, 8_000)  # exactly the drain rate
        summary = buffer.finish(9.9)
        assert summary.maintained

    def test_playback_time_buffered(self):
        buffer = make_buffer()
        buffer.deliver(0.0, 32_000)
        assert buffer.playback_time_buffered_s() == pytest.approx(2.0)

    def test_time_reversal_rejected(self):
        buffer = make_buffer()
        buffer.deliver(5.0, 1000)
        with pytest.raises(ValueError):
            buffer.deliver(4.0, 1000)

    def test_level_trace_recorded(self):
        buffer = make_buffer()
        buffer.deliver(0.0, 1000)
        buffer.deliver(1.0, 1000)
        assert len(buffer.level_trace) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            PlayoutBuffer(drain_rate_bps=0.0)
        with pytest.raises(ValueError):
            PlayoutBuffer(drain_rate_bps=1.0, prebuffer_s=-1.0)
        with pytest.raises(ValueError):
            PlayoutBuffer(drain_rate_bps=1.0, capacity_bytes=0)
        with pytest.raises(ValueError):
            make_buffer().deliver(0.0, -1)
