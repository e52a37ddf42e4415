"""Tests for propagation, PER and the Gilbert–Elliott channel."""

import random

import pytest

from repro.phy import (
    FreeSpacePathLoss,
    GilbertElliottChannel,
    LogDistancePathLoss,
    ScriptedLinkQuality,
    packet_error_rate,
    snr_db_from_link_budget,
)


class TestPathLoss:
    def test_free_space_increases_with_distance(self):
        model = FreeSpacePathLoss()
        assert model.loss_db(10.0) > model.loss_db(1.0)

    def test_free_space_inverse_square_slope(self):
        model = FreeSpacePathLoss()
        # 20 dB per decade of distance.
        assert model.loss_db(100.0) - model.loss_db(10.0) == pytest.approx(20.0)

    def test_free_space_known_value_at_2_4ghz(self):
        # Friis at 1 m, 2.4 GHz: ~40 dB.
        assert FreeSpacePathLoss(2.4e9).loss_db(1.0) == pytest.approx(40.05, abs=0.1)

    def test_log_distance_slope_follows_exponent(self):
        model = LogDistancePathLoss(exponent=3.5)
        assert model.loss_db(100.0) - model.loss_db(10.0) == pytest.approx(35.0)

    def test_log_distance_matches_free_space_at_reference(self):
        free = FreeSpacePathLoss()
        model = LogDistancePathLoss(exponent=3.0, reference_distance_m=1.0)
        assert model.loss_db(1.0) == pytest.approx(free.loss_db(1.0))

    def test_log_distance_clamps_below_reference(self):
        model = LogDistancePathLoss(exponent=3.0, reference_distance_m=1.0)
        assert model.loss_db(0.1) == model.loss_db(1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FreeSpacePathLoss(frequency_hz=0.0)
        with pytest.raises(ValueError):
            LogDistancePathLoss(exponent=0.0)


class TestPer:
    def test_zero_ber_means_zero_per(self):
        assert packet_error_rate(0.0, 10_000) == 0.0

    def test_zero_length_packet_never_errors(self):
        assert packet_error_rate(0.1, 0) == 0.0

    def test_certain_bit_error_means_certain_packet_error(self):
        assert packet_error_rate(1.0, 8) == 1.0

    def test_matches_direct_formula(self):
        direct = 1.0 - (1.0 - 1e-3) ** 1000
        assert packet_error_rate(1e-3, 1000) == pytest.approx(direct)

    def test_numerically_stable_at_tiny_ber(self):
        per = packet_error_rate(1e-12, 8000)
        assert per == pytest.approx(8e-9, rel=1e-3)

    def test_monotone_in_length(self):
        assert packet_error_rate(1e-4, 2000) > packet_error_rate(1e-4, 1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            packet_error_rate(-0.1, 100)
        with pytest.raises(ValueError):
            packet_error_rate(0.1, -1)


class TestLinkBudget:
    def test_snr_formula(self):
        assert snr_db_from_link_budget(15.0, 80.0, noise_floor_dbm=-95.0) == 30.0


class TestGilbertElliott:
    def make(self, **kwargs):
        defaults = dict(
            p_good_to_bad=0.05,
            p_bad_to_good=0.2,
            ber_good=1e-6,
            ber_bad=1e-2,
            slot_s=0.01,
            rng=random.Random(7),
        )
        defaults.update(kwargs)
        return GilbertElliottChannel(**defaults)

    def test_starts_good_by_default(self):
        assert self.make().is_good

    def test_stationary_probability_closed_form(self):
        channel = self.make()
        assert channel.stationary_good_probability() == pytest.approx(0.2 / 0.25)

    def test_stationary_probability_matches_long_run(self):
        channel = self.make()
        good_time = 0.0
        total = 200_000
        step = channel.slot_s
        for i in range(total):
            if channel.advance_to((i + 1) * step):
                good_time += 1
        assert good_time / total == pytest.approx(
            channel.stationary_good_probability(), abs=0.02
        )

    def test_cannot_rewind(self):
        channel = self.make()
        channel.advance_to(1.0)
        with pytest.raises(ValueError):
            channel.advance_to(0.5)

    def test_frozen_channel_never_flips(self):
        channel = self.make(p_good_to_bad=0.0, p_bad_to_good=0.0)
        channel.advance_to(100.0)
        assert channel.is_good
        assert channel.stationary_good_probability() == 1.0

    def test_current_ber_tracks_state(self):
        channel = self.make(p_good_to_bad=1.0, p_bad_to_good=0.0)
        assert channel.current_ber() == 1e-6
        channel.advance_to(channel.slot_s)
        assert not channel.is_good
        assert channel.current_ber() == 1e-2

    def test_packet_survival_probability_in_good_state(self):
        channel = self.make(p_good_to_bad=0.0, ber_good=1e-3)
        survived = sum(channel.packet_survives(100) for _ in range(20000))
        expected = (1.0 - 1e-3) ** 100
        assert survived / 20000 == pytest.approx(expected, abs=0.02)

    def test_expected_burst_lengths(self):
        channel = self.make()
        good, bad = channel.expected_burst_lengths()
        assert good == pytest.approx(20.0)
        assert bad == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(p_good_to_bad=1.5)
        with pytest.raises(ValueError):
            self.make(ber_bad=2.0)
        with pytest.raises(ValueError):
            self.make(slot_s=0.0)


class TestScriptedLinkQuality:
    def test_holds_value_until_next_point(self):
        link = ScriptedLinkQuality([(0.0, 1.0), (10.0, 0.3), (20.0, 0.9)])
        assert link.quality(0.0) == 1.0
        assert link.quality(9.999) == 1.0
        assert link.quality(10.0) == 0.3
        assert link.quality(15.0) == 0.3
        assert link.quality(25.0) == 0.9

    def test_before_first_point_uses_first_value(self):
        link = ScriptedLinkQuality([(5.0, 0.4)])
        assert link.quality(0.0) == 0.4

    def test_times_accessor(self):
        link = ScriptedLinkQuality([(0.0, 1.0), (7.5, 0.2)])
        assert link.times() == [0.0, 7.5]

    def test_validation(self):
        with pytest.raises(ValueError):
            ScriptedLinkQuality([])
        with pytest.raises(ValueError):
            ScriptedLinkQuality([(1.0, 0.5), (0.5, 0.5)])
        with pytest.raises(ValueError):
            ScriptedLinkQuality([(0.0, 1.5)])


class TestGilbertElliottProperties:
    def test_stationary_distribution_property(self):
        """For random transition probabilities, the long-run good
        fraction matches the closed form p_bg / (p_gb + p_bg)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=15, deadline=None)
        @given(
            st.floats(min_value=0.02, max_value=0.5),
            st.floats(min_value=0.02, max_value=0.5),
            st.integers(min_value=0, max_value=2**31),
        )
        def check(p_gb, p_bg, seed):
            channel = GilbertElliottChannel(
                p_good_to_bad=p_gb, p_bad_to_good=p_bg,
                slot_s=1.0, rng=random.Random(seed),
            )
            good = sum(
                channel.advance_to(float(i + 1)) for i in range(30_000)
            )
            expected = p_bg / (p_gb + p_bg)
            assert abs(good / 30_000 - expected) < 0.06

        check()


class TestPerMemo:
    """The per-chain PER memo must be invisible to the survival draws."""

    def test_survival_matches_direct_per_computation(self):
        p_gb, p_bg, ber_good, ber_bad, slot_s = 0.1, 0.3, 1e-6, 5e-3, 0.01
        channel = GilbertElliottChannel(
            p_good_to_bad=p_gb, p_bad_to_good=p_bg, ber_good=ber_good,
            ber_bad=ber_bad, slot_s=slot_s, rng=random.Random(42),
        )
        # The same chain, evolved by hand on a twin stream, with every
        # PER computed afresh.
        twin = random.Random(42)
        good, now = True, 0.0
        survived = []
        for i in range(500):
            bits = 8 * (64 + 128 * (i % 3))
            time = i * 0.02
            slots = int((time - now) / slot_s)
            for _ in range(slots):
                if twin.random() < (p_gb if good else p_bg):
                    good = not good
            now += slots * slot_s
            per = packet_error_rate(ber_good if good else ber_bad, bits)
            expected = twin.random() >= per
            assert channel.packet_survives(bits, time=time) is expected, i
            assert channel.is_good is good, i
            survived.append(expected)
        assert not all(survived)  # the bad state actually bit

    def test_per_memo_distinguishes_ber_and_bits(self):
        channel = GilbertElliottChannel(
            p_good_to_bad=0.0, p_bad_to_good=0.0, ber_good=0.01,
            rng=random.Random(1),
        )
        # Prime the memo at one size, then query another: survival odds
        # must track the fresh computation, not the primed entry.
        survived_small = sum(channel.packet_survives(80) for _ in range(2000))
        survived_large = sum(channel.packet_survives(4000) for _ in range(2000))
        expected_small = (1.0 - packet_error_rate(0.01, 80)) * 2000
        expected_large = (1.0 - packet_error_rate(0.01, 4000)) * 2000
        assert abs(survived_small - expected_small) < 150
        assert abs(survived_large - expected_large) < 150
        assert survived_large < survived_small
