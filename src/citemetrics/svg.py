"""Minimal deterministic SVG line charts.

One polyline per named series, fixed viewport, no timestamps or random ids:
identical input yields byte-identical output, so charts can be diffed and
cached like any other build artifact.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

from .ledger import _Memo

WIDTH, HEIGHT = 800, 500
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 65, 150, 30, 55

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#393b79", "#637939",
    "#8c6d31", "#843c39",
)


def emit_svg_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """The chart of chart_lines, joined into one string, from named (x, y) point series."""
    # zip(*points) gives the x and y columns, or nothing for an empty series.
    columns = [(name, *(list(zip(*points)) or [(), ()])) for name, points in series]
    return "".join(chart_lines(columns, x_label, y_label, title))


def chart_lines(
    columns: Sequence[tuple[str, Sequence[float], Iterable[float]]],
    x_label: str,
    y_label: str,
    title: str,
) -> Iterator[str]:
    """Named (name, xs, ys) columns as a standalone SVG 1.1 document, line by line.

    `curves --svg` writes the lines as they come instead of holding the chart.
    Each ys is iterated three times (min, max, polyline): an iterator raises
    TypeError, and a re-iterable such as the curves.FloatColumn `curves`
    passes may make its floats anew on each pass.  Series are drawn (and
    listed in the legend) in the order given, so pass a stably ordered
    sequence for stable output.  Each distinct x and y is formatted once per
    call, on its first use; equal values of any type share the text, as
    subtracting a float minimum makes them one float.
    """
    if not columns:
        raise ValueError("chart needs at least one series")
    for name, xs, ys in columns:
        if not xs:
            raise ValueError(f"series {name!r} is empty")
        if iter(ys) is ys:  # read three times, an iterator would draw no points
            raise TypeError(f"series {name!r}: ys must be re-iterable, not an iterator")

    def every(at: int) -> Iterator[float]:  # each series' xs (at 1) or ys (at 2), in order
        return chain.from_iterable(column[at] for column in columns)

    x_min, x_max = float(min(every(1))), float(max(every(1)))
    y_min, y_max = min(float(min(every(2))), 0.0), float(max(every(2)))
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h

    # x - x_min is float(x) - x_min for an int, float or Fraction x.
    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_min) / x_span * plot_w

    x_text = _Memo(lambda x: f"{sx(x):.2f}")
    y_text = _Memo(lambda y: f"{y0 - (y - y_min) / y_span * plot_h:.2f}")

    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n')
    yield f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
    if title:
        yield (
            f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>\n'
        )
    # axes
    yield f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>\n'
    yield f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>\n'
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_min + frac * x_span
        yv = y_min + frac * y_span
        yield (
            f'<text x="{sx(xv):.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:g}</text>\n'
        )
        yield (
            f'<text x="{x0 - 8}" y="{y0 - (yv - y_min) / y_span * plot_h + 4:.2f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">{yv:g}</text>\n'
        )
    yield (
        f'<text x="{x0 + plot_w // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>\n'
    )
    yield (
        f'<text x="18" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h // 2})">{_escape(y_label)}</text>\n'
    )
    for index, (name, x_column, y_column) in enumerate(columns):
        color = PALETTE[index % len(PALETTE)]
        coords = " ".join([f"{x_text[x]},{y_text[y]}" for x, y in zip(x_column, y_column)])
        yield (
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>\n'
        )
        ly = MARGIN_TOP + 14 + index * 16
        lx = WIDTH - MARGIN_RIGHT + 12
        yield (
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>\n'
        )
        yield (
            f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{_escape(name)}</text>\n'
        )
    yield "</svg>\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )
