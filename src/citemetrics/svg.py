"""Minimal deterministic SVG line charts.

One polyline per named series, fixed viewport, no timestamps or random ids:
identical input yields byte-identical output, so charts can be diffed and
cached like any other build artifact.
"""
from __future__ import annotations

from typing import Sequence

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
    """Render named (x, y) series as a standalone SVG 1.1 document.

    Series are drawn (and listed in the legend) in the order given; callers
    wanting stable output across runs should pass a stably ordered sequence.
    Each distinct x and y is formatted once per call.  Equal values of any
    type share the text: subtracting a float minimum makes them one float.
    """
    if not series:
        raise ValueError("chart needs at least one series")
    for name, points in series:
        if not points:
            raise ValueError(f"series {name!r} is empty")

    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_min, x_max = float(min(xs)), float(max(xs))
    y_min, y_max = min(float(min(ys)), 0.0), float(max(ys))
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    x0, y0 = MARGIN_LEFT, MARGIN_TOP + plot_h

    # x - x_min is float(x) - x_min for an int, float or Fraction x.
    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_min) / x_span * plot_w

    x_text = {x: f"{sx(x):.2f}" for x in set(xs)}
    y_text = {y: f"{y0 - (y - y_min) / y_span * plot_h:.2f}" for y in set(ys)}

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )
    # axes
    out.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    out.append(f'<line x1="{x0}" y1="{MARGIN_TOP}" x2="{x0}" y2="{y0}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_min + frac * x_span
        yv = y_min + frac * y_span
        out.append(
            f'<text x="{sx(xv):.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:g}</text>'
        )
        out.append(
            f'<text x="{x0 - 8}" y="{y0 - (yv - y_min) / y_span * plot_h + 4:.2f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">{yv:g}</text>'
        )
    out.append(
        f'<text x="{x0 + plot_w // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h // 2})">{_escape(y_label)}</text>'
    )
    for index, (name, points) in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        coords = " ".join([f"{x_text[x]},{y_text[y]}" for x, y in points])
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        ly = MARGIN_TOP + 14 + index * 16
        lx = WIDTH - MARGIN_RIGHT + 12
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{_escape(name)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )
