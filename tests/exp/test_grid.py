"""Grid expansion: deterministic order, sizes, validation."""

import pytest

from repro.exp.grid import expand_grid


class TestExpandGrid:
    def test_declaration_order_first_key_outermost(self):
        points = expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert points == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_same_grid_expands_identically(self):
        grid = {"burst": [10_000, 20_000], "clients": [1, 2, 3]}
        assert expand_grid(grid) == expand_grid(grid)

    def test_empty_grid_is_one_empty_point(self):
        assert expand_grid({}) == [{}]

    def test_single_axis(self):
        assert expand_grid({"s": ["edf", "wfq"]}) == [{"s": "edf"}, {"s": "wfq"}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            expand_grid({"a": []})
