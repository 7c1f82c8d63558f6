"""Aligned text tables: what ``status_report`` and the benchmarks print."""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence


def format_table(
    rows: Sequence[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [
        [_format_cell(row.get(column)) for column in columns] for row in rows
    ]
    widths = [
        max(len(str(column)), *(len(r[i]) for r in rendered))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(c).rjust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
