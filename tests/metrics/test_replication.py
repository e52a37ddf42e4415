"""Seed-replication confidence intervals (``exp.aggregate.FieldStats``)."""

import pytest

from repro.exp.aggregate import FieldStats


class TestReplication:
    def test_ci_uses_student_t(self):
        stats = FieldStats.of([1.0, 2.0, 3.0, 4.0])
        # t(3 dof, 95%) = 3.182; half = 3.182 * s / sqrt(4)
        expected = 3.182 * stats.stdev / 2.0
        assert stats.ci95 == pytest.approx(expected, rel=1e-4)
        assert stats.mean - stats.ci95 < stats.mean < stats.mean + stats.ci95

    def test_large_n_uses_normal_approximation(self):
        stats = FieldStats.of([float(i % 5) for i in range(100)])
        expected = 1.960 * stats.stdev / 10.0
        assert stats.ci95 == pytest.approx(expected, rel=1e-4)
