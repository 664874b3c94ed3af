"""Plain-text table rendering for benchmark reports."""

from __future__ import annotations

from typing import Any, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in str_rows), default=0))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}" if abs(cell) < 100 else f"{cell:.1f}"
    return str(cell)


def smoke_verdict(
    text: str, problems: Sequence[str], passed: str, label: str = "SMOKE"
) -> tuple[int, str]:
    """Close a smoke report: ``(1, text + FAIL list)`` when any check
    failed, else ``(0, text + PASS line)``."""
    if problems:
        return 1, f"{text}\n{label} FAIL:\n" + "\n".join(f"  - {p}" for p in problems)
    return 0, f"{text}\n{label} PASS: {passed}"


def ratio_note(measured: float, reference: float) -> str:
    """'measured (paper ref, xx% off)' summary cell."""
    if reference == 0:
        return f"{measured:.2f}"
    delta = 100.0 * (measured - reference) / reference
    return f"{measured:.1f} (paper {reference:.1f}, {delta:+.0f}%)"
