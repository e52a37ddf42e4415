"""Fixed-width tables and ASCII bar charts for benchmark output.

Every benchmark prints its figure/table through these helpers so the
output format is uniform and diffable against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render rows as a fixed-width text table.

    Numbers are formatted with sensible precision; everything else via
    ``str``.  Columns are sized to their widest cell.
    """

    def cell(value: object) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            if value == float("inf"):
                return "inf"
            magnitude = abs(value)
            if magnitude != 0 and (magnitude >= 1e5 or magnitude < 1e-3):
                return f"{value:.3e}"
            return f"{value:.4g}"
        return str(value)

    rendered_rows: List[List[str]] = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, text in enumerate(row):
            widths[i] = max(widths[i], len(text))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(text.ljust(widths[i]) for i, text in enumerate(row)))
    return "\n".join(lines)


def ascii_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    unit: str = "",
    title: Optional[str] = None,
) -> str:
    """Horizontal bar chart, scaled to the maximum value."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if width < 1:
        raise ValueError("width must be >= 1")
    if any(v < 0 for v in values):
        raise ValueError("bar values must be >= 0")
    peak = max(values, default=0.0)
    label_width = max((len(label) for label in labels), default=0)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, value in zip(labels, values):
        bar_length = int(round(width * value / peak)) if peak > 0 else 0
        bar = "#" * bar_length
        lines.append(f"{label.ljust(label_width)} |{bar} {value:.4g}{unit}")
    return "\n".join(lines)
