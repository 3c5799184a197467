"""Minimal ASCII chart rendering for the figure experiments.

The paper's evaluation artifacts are figures; these helpers render the
regenerated series as terminal plots so `repro run figN` output
visually mirrors the paper (shape, crossings, saturation), without any
plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["line_chart", "bar_chart"]

_MARKERS = "*o+x#@"


def line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    *,
    title: str = "",
    width: int = 60,
    height: int = 16,
    y_label: str = "",
    x_label: str = "",
    bands: Mapping[str, Sequence[tuple[float, float, float]]] | None = None,
) -> str:
    """Render named ``(x, y)`` series on one shared-axis scatter chart.

    ``bands`` optionally adds per-series ``(x, y_low, y_high)`` intervals
    (confidence bands from seed-replicated runs), drawn as ``:`` columns
    underneath the series markers and included in the y-axis range.
    """
    bands = bands or {}
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"{title}\n(no data)"
    xs = [p[0] for p in points] + [x for pts in bands.values() for x, _, _ in pts]
    ys = [p[1] for p in points] + [
        y for pts in bands.values() for _, low, high in pts for y in (low, high)
    ]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    if x_high == x_low:
        x_high = x_low + 1.0
    if y_high == y_low:
        y_high = y_low + 1.0

    def cell(x: float, y: float) -> tuple[int, int]:
        col = round((x - x_low) / (x_high - x_low) * (width - 1))
        row = round((y - y_low) / (y_high - y_low) * (height - 1))
        return height - 1 - row, col

    grid = [[" "] * width for _ in range(height)]
    # Bands first so series markers draw over them.
    for pts in bands.values():
        for x, low, high in pts:
            top, col = cell(x, high)
            bottom, _ = cell(x, low)
            for row in range(top, bottom + 1):
                grid[row][col] = ":"
    for index, (name, pts) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in pts:
            row, col = cell(x, y)
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    if y_label:
        lines.append(y_label)
    top = f"{y_high:.4g}"
    bottom = f"{y_low:.4g}"
    gutter = max(len(top), len(bottom))
    for i, row in enumerate(grid):
        if i == 0:
            prefix = top.rjust(gutter)
        elif i == height - 1:
            prefix = bottom.rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(f"{prefix} |{''.join(row)}")
    axis = f"{' ' * gutter} +{'-' * width}"
    lines.append(axis)
    left = f"{x_low:.4g}"
    right = f"{x_high:.4g}"
    pad = width - len(left) - len(right)
    lines.append(f"{' ' * (gutter + 2)}{left}{' ' * max(pad, 1)}{right}")
    if x_label:
        lines.append(f"{' ' * (gutter + 2)}{x_label}")
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(f"{' ' * (gutter + 2)}{legend}")
    return "\n".join(lines)


def bar_chart(
    values: Mapping[str, float],
    *,
    title: str = "",
    width: int = 50,
    unit: str = "",
) -> str:
    """Render labelled values as horizontal bars."""
    if not values:
        return f"{title}\n(no data)"
    peak = max(values.values()) or 1.0
    label_width = max(len(label) for label in values)
    lines = [title] if title else []
    for label, value in values.items():
        bar = "#" * max(1 if value > 0 else 0, round(value / peak * width))
        lines.append(f"{label.ljust(label_width)} |{bar} {value:.3g}{unit}")
    return "\n".join(lines)
