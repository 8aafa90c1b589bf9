"""Plain-text table formatting for experiment and benchmark reports.

The benchmark harness prints the same rows/series the paper's figures report;
this module renders those rows as aligned monospace tables so results are
readable directly from the pytest output or the saved report files.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _render_cell(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1.0e5 or magnitude < 1.0e-3:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 3,
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table."""
    rendered_rows = [[_render_cell(cell, precision) for cell in row] for row in rows]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} does not match header width {len(headers)}"
            )
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[idx]) for idx, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_line(list(headers)))
    lines.append(render_line(["-" * w for w in widths]))
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)
