"""Tests for proxy adaptations."""

import pytest

from repro.apps import MediaProxy, Mp3Stream, VideoStream
from repro.apps.traffic import merge_arrivals
from repro.phy import ScriptedLinkQuality


def media_stream(duration=10.0):
    return merge_arrivals(
        [Mp3Stream(bitrate_bps=128_000.0), VideoStream(frame_rate_fps=10.0)],
        until_s=duration,
    )


class TestMediaProxy:
    def test_good_conditions_pass_everything(self):
        proxy = MediaProxy(quality_signal=lambda t: 1.0)
        kept = proxy.filter_stream(media_stream())
        assert proxy.stats.packets_dropped == 0
        assert len(kept) == proxy.stats.packets_in

    def test_adverse_conditions_drop_video_keep_audio(self):
        proxy = MediaProxy(quality_signal=lambda t: 0.1)
        kept = proxy.filter_stream(media_stream())
        kinds = {k for _t, _n, k in kept}
        assert kinds == {"audio"}
        assert proxy.stats.packets_dropped > 0

    def test_scripted_degradation_switches_midstream(self):
        quality = ScriptedLinkQuality([(0.0, 1.0), (5.0, 0.2)])
        proxy = MediaProxy(quality_signal=quality.quality)
        kept = proxy.filter_stream(media_stream(duration=10.0))
        video_times = [t for t, _n, k in kept if k.startswith("video")]
        assert video_times, "video flowed while conditions were good"
        assert max(video_times) < 5.0
        audio_times = [t for t, _n, k in kept if k == "audio"]
        assert max(audio_times) > 9.0  # audio continues throughout
        assert proxy.stats.adverse_time_entries == 1

    def test_bytes_saved_fraction(self):
        proxy = MediaProxy(quality_signal=lambda t: 0.0)
        proxy.filter_stream(media_stream())
        # Video dominates the byte budget in this mix.
        assert proxy.stats.bytes_saved_fraction > 0.5

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            MediaProxy(quality_signal=lambda t: 1.0, adverse_threshold=1.5)

    def test_empty_stream(self):
        proxy = MediaProxy(quality_signal=lambda t: 1.0)
        assert proxy.filter_stream([]) == []
        assert proxy.stats.bytes_saved_fraction == 0.0
