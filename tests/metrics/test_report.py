"""Tests for table and chart rendering."""

import pytest

from repro.metrics import ascii_bar_chart, format_table


class TestFormatTable:
    def test_basic_table(self):
        text = format_table(
            ["name", "power"], [["wlan", 0.834], ["bt", 0.0923]], title="Fig2"
        )
        lines = text.splitlines()
        assert lines[0] == "Fig2"
        assert "name" in lines[1] and "power" in lines[1]
        assert "wlan" in lines[3]
        assert "0.834" in lines[3]

    def test_column_alignment(self):
        text = format_table(["a", "b"], [["xxxxxxxx", 1], ["y", 22]])
        lines = text.splitlines()
        # Both data rows have 'b' values starting at the same column.
        assert lines[2].index("1") == lines[3].index("2")

    def test_float_formatting(self):
        text = format_table(["v"], [[1e-9], [123456.789], [float("inf")]])
        assert "1.000e-09" in text
        assert "1.235e+05" in text
        assert "inf" in text

    def test_bool_rendering(self):
        text = format_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])


class TestBarChart:
    def test_bars_scaled_to_peak(self):
        text = ascii_bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_zero_values_ok(self):
        text = ascii_bar_chart(["a"], [0.0])
        assert "#" not in text

    def test_title_and_unit(self):
        text = ascii_bar_chart(["a"], [3.0], unit=" W", title="Power")
        assert text.splitlines()[0] == "Power"
        assert "3 W" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [-1.0])
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0], width=0)
