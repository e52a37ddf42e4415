"""Tests for the random-waypoint mobility model."""

import pytest

from repro.phy import RandomWaypoint
from repro.sim import RandomStreams


class TestRandomWaypoint:
    AREA = ((0.0, 0.0), (100.0, 40.0))

    def make_walker(self, seed=0, name="w0", **kwargs):
        return RandomWaypoint(
            RandomStreams(seed=seed), name, area=self.AREA, **kwargs
        )

    def test_same_seed_same_trajectory(self):
        times = [0.0, 3.7, 10.0, 42.5, 120.0]
        a = [self.make_walker().position(t) for t in times]
        b = [self.make_walker().position(t) for t in times]
        assert a == b

    def test_different_seed_different_trajectory(self):
        a = self.make_walker(seed=0).position(60.0)
        b = self.make_walker(seed=1).position(60.0)
        assert a != b

    def test_named_substreams_isolate_walkers(self):
        # Two walkers share one RandomStreams; querying one must not
        # perturb the other (the mobility/<name> substream contract).
        streams = RandomStreams(seed=0)
        w0 = RandomWaypoint(streams, "w0", area=self.AREA)
        w1 = RandomWaypoint(streams, "w1", area=self.AREA)
        w0.position(500.0)  # burn through many of w0's legs
        lone = RandomWaypoint(RandomStreams(seed=0), "w1", area=self.AREA)
        assert w1.position(77.0) == lone.position(77.0)

    def test_positions_stay_inside_the_area(self):
        walker = self.make_walker()
        (x0, y0), (x1, y1) = self.AREA
        for t in range(0, 600, 7):
            x, y = walker.position(float(t))
            assert x0 <= x <= x1
            assert y0 <= y <= y1

    def test_query_order_does_not_change_the_path(self):
        forward = self.make_walker()
        ordered = [forward.position(float(t)) for t in range(0, 100, 5)]
        shuffled = self.make_walker()
        scattered = {
            t: shuffled.position(float(t)) for t in (95, 5, 50, 0, 75, 25)
        }
        for t, xy in scattered.items():
            assert xy == ordered[t // 5]

    def test_speed_respects_the_configured_range(self):
        walker = self.make_walker(speed_range_m_s=(1.0, 2.0),
                                  pause_range_s=(0.0, 0.0))
        walker.position(300.0)
        for t0, t1, x0, y0, x1, y1 in walker._legs:
            if t1 <= t0:
                continue
            speed = ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5 / (t1 - t0)
            assert 1.0 - 1e-9 <= speed <= 2.0 + 1e-9

    def test_start_position_override(self):
        walker = self.make_walker(start_xy=(10.0, 20.0))
        assert walker.position(0.0) == (10.0, 20.0)

    def test_distance_to(self):
        walker = self.make_walker(start_xy=(0.0, 0.0),
                                  pause_range_s=(100.0, 100.0))
        assert walker.distance_to(0.0, (3.0, 4.0)) == pytest.approx(5.0)

    def test_validation(self):
        streams = RandomStreams(seed=0)
        with pytest.raises(ValueError):
            RandomWaypoint(streams, "w", area=((10.0, 0.0), (0.0, 10.0)))
        with pytest.raises(ValueError):
            RandomWaypoint(streams, "w", speed_range_m_s=(0.0, 1.0))
        with pytest.raises(ValueError):
            RandomWaypoint(streams, "w", pause_range_s=(-1.0, 1.0))
