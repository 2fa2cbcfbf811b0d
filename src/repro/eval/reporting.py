"""Plain-text table rendering for the benchmark harnesses.

Every table/figure bench prints its reproduction through these helpers so
outputs are uniform and diffable from run to run.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

Cell = Union[str, int, float]


def format_cell(value: Cell, float_digits: int = 3) -> str:
    """Render one cell: floats get fixed digits, everything else str()."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)


def render_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]],
                 title: Optional[str] = None,
                 float_digits: int = 3) -> str:
    """Fixed-width aligned table with a header rule.

    Args:
        headers: Column names.
        rows: Row cells (str/int/float/bool).
        title: Optional title printed above the table.
        float_digits: Decimal places for float cells.

    Returns:
        The rendered multi-line string (no trailing newline).
    """
    str_rows: List[List[str]] = [
        [format_cell(cell, float_digits) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(cells)).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(fmt_line(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_line(row) for row in str_rows)
    return "\n".join(lines)


def render_markdown(headers: Sequence[str],
                    rows: Iterable[Sequence[Cell]],
                    float_digits: int = 3) -> str:
    """GitHub-flavoured markdown table."""
    str_rows = [[format_cell(cell, float_digits) for cell in row]
                for row in rows]
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines.extend("| " + " | ".join(row) + " |" for row in str_rows)
    return "\n".join(lines)


def render_bar_chart(labels: Sequence[str], values: Sequence[float],
                     title: Optional[str] = None, width: int = 50,
                     unit: str = "") -> str:
    """ASCII horizontal bar chart (for the figure benches).

    Args:
        labels: Bar labels.
        values: Non-negative bar values.
        title: Optional chart title.
        width: Maximum bar width in characters.
        unit: Unit suffix printed after each value.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    peak = max(values) if values else 0.0
    label_width = max((len(label) for label in labels), default=0)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, value in zip(labels, values):
        bar_len = int(round(width * value / peak)) if peak > 0 else 0
        lines.append(f"{label.ljust(label_width)}  "
                     f"{'#' * bar_len} {value:.3g}{unit}")
    return "\n".join(lines)
