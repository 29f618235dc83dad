"""Terminal-friendly figure rendering.

The paper's results are figures; this module renders their data as
ASCII charts so ``python -m repro.experiments`` output is visually
comparable without a plotting stack:

* :func:`bar_chart` — grouped horizontal bars (Fig 6/8 panels);
* :func:`line_chart` — log-x series (Fig 5b, Fig 7).

Rendering is width-normalised per chart, so bars show *relative*
magnitudes; exact numbers stay in the accompanying tables.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.errors import ExperimentError

#: Glyph used for bar fills.
BAR = "█"
HALF_BAR = "▌"

#: Canvas of a :func:`line_chart`, in characters.
LINE_WIDTH = 60
LINE_HEIGHT = 16


def bar_chart(
    data: Mapping[str, float],
    title: str | None = None,
    width: int = 50,
    log_scale: bool = False,
) -> str:
    """Horizontal bar chart of label -> value.

    With *log_scale* the bar lengths follow ``log10`` of the values
    (useful when one series dwarfs the rest, e.g. KLL's Pareto p99).
    """
    if not data:
        raise ExperimentError("bar_chart needs at least one entry")
    if any(value < 0 for value in data.values()):
        raise ExperimentError("bar_chart values must be non-negative")
    label_width = max(len(str(label)) for label in data)
    scaled = {}
    for label, value in data.items():
        if log_scale:
            # Map [min positive, max] onto bar length logarithmically.
            scaled[label] = math.log10(value) if value > 0 else None
        else:
            scaled[label] = value
    finite = [v for v in scaled.values() if v is not None]
    hi = max(finite)
    lo = min(finite) if log_scale else 0.0
    span = (hi - lo) or 1.0

    lines = []
    if title:
        lines.append(title)
    for label, value in data.items():
        raw = scaled[label]
        if raw is None:
            bar = ""
        else:
            fraction = (raw - lo) / span
            cells = fraction * width
            bar = BAR * int(cells)
            if cells - int(cells) >= 0.5:
                bar += HALF_BAR
        lines.append(
            f"{str(label).rjust(label_width)} |{bar.ljust(width)}| "
            f"{value:.4g}"
        )
    return "\n".join(lines)


def grouped_bar_chart(
    groups: Mapping[str, Mapping[str, float]],
    title: str | None = None,
    width: int = 40,
) -> str:
    """One bar block per group (e.g. per data set), shared scale.

    Mirrors the paper's Fig 6 layout: groups are quantile bands, bars
    are sketches; all bars share one scale so bands are comparable.
    """
    if not groups:
        raise ExperimentError("grouped_bar_chart needs at least one group")
    all_values = [
        value for group in groups.values() for value in group.values()
    ]
    hi = max(all_values) or 1.0
    label_width = max(
        len(str(label)) for group in groups.values() for label in group
    )
    lines = []
    if title:
        lines.append(title)
    for group_name, group in groups.items():
        lines.append(f"- {group_name}")
        for label, value in group.items():
            cells = value / hi * width
            bar = BAR * int(cells)
            if cells - int(cells) >= 0.5:
                bar += HALF_BAR
            lines.append(
                f"  {str(label).rjust(label_width)} "
                f"|{bar.ljust(width)}| {value:.4g}"
            )
    return "\n".join(lines)


def line_chart(
    series: Mapping[str, Sequence[tuple[float, float]]],
    title: str | None = None,
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """Multi-series scatter/line plot on a :data:`LINE_WIDTH` x
    :data:`LINE_HEIGHT` character canvas.

    Each series is a list of ``(x, y)`` points; series are drawn with
    distinct letters (a legend is appended).  Log axes suit the
    paper's Fig 5b (size sweep) and Fig 7 (kurtosis sweep).
    """
    if not series or all(not points for points in series.values()):
        raise ExperimentError("line_chart needs at least one point")

    def tx(x: float) -> float:
        return math.log10(x) if log_x else x

    def ty(y: float) -> float:
        return math.log10(y) if log_y else y

    points = [
        (tx(x), ty(y))
        for series_points in series.values()
        for x, y in series_points
        if (not log_x or x > 0) and (not log_y or y > 0)
    ]
    if not points:
        raise ExperimentError("no drawable points after log filtering")
    xs, ys = zip(*points)
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    canvas = [[" "] * LINE_WIDTH for _ in range(LINE_HEIGHT)]
    markers = "abcdefghijklmnopqrstuvwxyz"
    legend = []
    for index, (name, series_points) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        legend.append(f"{marker}={name}")
        for x, y in series_points:
            if (log_x and x <= 0) or (log_y and y <= 0):
                continue
            column = int((tx(x) - x_lo) / x_span * (LINE_WIDTH - 1))
            row = int((ty(y) - y_lo) / y_span * (LINE_HEIGHT - 1))
            canvas[LINE_HEIGHT - 1 - row][column] = marker

    lines = []
    if title:
        lines.append(title)
    top = f"{(10 ** y_hi if log_y else y_hi):.3g}"
    bottom = f"{(10 ** y_lo if log_y else y_lo):.3g}"
    gutter = max(len(top), len(bottom))
    for row_index, row in enumerate(canvas):
        prefix = (
            top if row_index == 0
            else bottom if row_index == LINE_HEIGHT - 1
            else ""
        )
        lines.append(f"{prefix.rjust(gutter)} |{''.join(row)}|")
    x_left = f"{(10 ** x_lo if log_x else x_lo):.3g}"
    x_right = f"{(10 ** x_hi if log_x else x_hi):.3g}"
    axis = f"{' ' * gutter} +{'-' * LINE_WIDTH}+"
    labels = (
        f"{' ' * gutter}  {x_left}"
        f"{' ' * max(LINE_WIDTH - len(x_left) - len(x_right), 1)}{x_right}"
    )
    lines.append(axis)
    lines.append(labels)
    lines.append("  " + "  ".join(legend))
    return "\n".join(lines)
