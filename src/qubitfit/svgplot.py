"""Standalone SVG line plots, no plotting dependency.

Fixed 800x600 canvas: margins, axes with ticks, one polyline per series,
legend swatches top-right. Output is deterministic for identical input.
"""

from __future__ import annotations

import os

import numpy as np

from .fileio import _write_text

WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 30, 50, 50
N_TICKS = 5


def _escape(text: str) -> str:
    # what xml.sax.saxutils.escape does, without importing its urllib and email stack
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _span(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        return lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_line_plot(
    x: np.ndarray,
    series: list[tuple[str, np.ndarray, str]],
    title: str = "",
) -> str:
    """Render series [(label, yvalues, color), ...] against shared x."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError("line plot needs at least 2 points")
    if not series:
        raise ValueError("line plot needs at least one series")
    ys = []
    for label, y, _color in series:
        y = np.asarray(y, dtype=float)
        if y.shape != x.shape:
            raise ValueError(f"series {label!r} length does not match x")
        ys.append(y)

    x_lo, x_hi = _span(float(x.min()), float(x.max()))
    y_lo, y_hi = _span(float(min(y.min() for y in ys)), float(max(y.max() for y in ys)))
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(v: float) -> float:
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8" standalone="no"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:g}" y="28" text-anchor="middle" '
            f'font-family="sans-serif" font-size="18">{_escape(title)}</text>'
        )

    # frame and ticks
    x_axis_y = HEIGHT - MARGIN_BOTTOM
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>'
    )
    for i in range(N_TICKS):
        frac = i / (N_TICKS - 1)
        xv = x_lo + frac * (x_hi - x_lo)
        xp = px(xv)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{x_axis_y}" x2="{xp:.2f}" y2="{x_axis_y + 6}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xp:.2f}" y="{x_axis_y + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xv:.4g}</text>'
        )
        yv = y_lo + frac * (y_hi - y_lo)
        yp = py(yv)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 6}" y1="{yp:.2f}" x2="{MARGIN_LEFT}" y2="{yp:.2f}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 10}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:g}" y="{HEIGHT - 10}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">x</text>'
    )

    for label, y, color in series:
        pts = " ".join(f"{px(xi):.2f},{py(yi):.2f}" for xi, yi in zip(x, np.asarray(y, float)))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )

    legend_x = WIDTH - MARGIN_RIGHT - 170
    for i, (label, _y, color) in enumerate(series):
        ly = MARGIN_TOP + 14 + 20 * i
        parts.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 28}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 36}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="13">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_line_plot(path: str | os.PathLike, x, series, title="") -> None:
    _write_text(path, render_line_plot(x, series, title=title))
