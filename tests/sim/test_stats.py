"""Tests for the statistics collectors."""


import pytest

from repro.sim import RunningStat, TimeSeries, TimeWeightedStat


class TestRunningStat:
    def test_empty_stat_is_zero(self):
        stat = RunningStat()
        assert stat.count == 0
        assert stat.mean == 0.0
        assert stat.variance == 0.0

    def test_mean_and_variance_match_closed_form(self):
        stat = RunningStat()
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        stat.extend(values)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stat.mean == pytest.approx(mean)
        assert stat.variance == pytest.approx(var)
        assert stat.min == 2.0
        assert stat.max == 9.0

    def test_single_sample_variance_is_zero(self):
        stat = RunningStat()
        stat.add(3.0)
        assert stat.variance == 0.0
        assert stat.stdev == 0.0


class TestTimeWeightedStat:
    def test_constant_signal(self):
        stat = TimeWeightedStat(initial_value=5.0)
        assert stat.mean(now=10.0) == pytest.approx(5.0)
        assert stat.integral(now=10.0) == pytest.approx(50.0)

    def test_two_level_signal(self):
        stat = TimeWeightedStat(initial_value=0.0)
        stat.record(4.0, 10.0)  # 0 W for 4 s, then 10 W
        assert stat.mean(now=8.0) == pytest.approx(5.0)
        assert stat.integral(now=8.0) == pytest.approx(40.0)

    def test_duration_by_value(self):
        stat = TimeWeightedStat(initial_value=1.0)
        stat.record(2.0, 3.0)
        stat.record(5.0, 1.0)
        durations = stat.duration_by_value(now=6.0)
        assert durations[1.0] == pytest.approx(3.0)  # [0,2) and [5,6)
        assert durations[3.0] == pytest.approx(3.0)  # [2,5)

    def test_time_reversal_rejected(self):
        stat = TimeWeightedStat()
        stat.record(5.0, 1.0)
        with pytest.raises(ValueError):
            stat.record(4.0, 2.0)
        with pytest.raises(ValueError):
            stat.mean(now=1.0)

    def test_zero_window_returns_current_value(self):
        stat = TimeWeightedStat(initial_time=3.0, initial_value=7.0)
        assert stat.mean(now=3.0) == 7.0

    def test_nonzero_start_time(self):
        stat = TimeWeightedStat(initial_time=10.0, initial_value=2.0)
        stat.record(15.0, 4.0)
        assert stat.mean(now=20.0) == pytest.approx(3.0)
        assert stat.elapsed(now=20.0) == pytest.approx(10.0)


class TestTimeSeries:
    def test_append_and_iterate(self):
        series = TimeSeries("power")
        series.append(0.0, "idle")
        series.append(1.0, "tx")
        assert list(series) == [(0.0, "idle"), (1.0, "tx")]
        assert len(series) == 2
        assert series.last() == (1.0, "tx")

    def test_monotone_time_enforced(self):
        series = TimeSeries()
        series.append(2.0, "a")
        with pytest.raises(ValueError):
            series.append(1.0, "b")

    def test_equal_times_allowed(self):
        series = TimeSeries()
        series.append(1.0, "a")
        series.append(1.0, "b")
        assert series.values == ["a", "b"]

    def test_value_at_picks_latest_before(self):
        series = TimeSeries()
        series.append(0.0, "off")
        series.append(5.0, "on")
        series.append(9.0, "off")
        assert series.value_at(0.0) == "off"
        assert series.value_at(4.999) == "off"
        assert series.value_at(5.0) == "on"
        assert series.value_at(100.0) == "off"

    def test_value_at_before_first_sample_raises(self):
        series = TimeSeries()
        series.append(5.0, "x")
        with pytest.raises(ValueError):
            series.value_at(1.0)

    def test_last_on_empty_raises(self):
        with pytest.raises(IndexError):
            TimeSeries().last()


class TestEmptyRunningStat:
    def test_empty_min_max_are_nan(self):
        import math

        stat = RunningStat()
        assert math.isnan(stat.min)
        assert math.isnan(stat.max)

    def test_min_max_after_one_sample(self):
        stat = RunningStat()
        stat.add(-3.5)
        assert stat.min == -3.5
        assert stat.max == -3.5
