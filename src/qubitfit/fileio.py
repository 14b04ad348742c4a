"""Plain-text file formats: parameter files, run records, traces, configs, plots.

Parameter files are key=value lines with `#` comments; floats are written
with shortest round-trip precision so parse(serialize(p)) restores every
bit. The run record is a four-column CSV plus a small summary block kept
in a separate file so the CSV stays exactly header + N rows.

Plots are standalone SVG line plots with no plotting dependency: a fixed
800x600 canvas with margins, axes with ticks, one polyline per series and
legend swatches top-right. Output is deterministic for identical input.

Every artifact is written by :func:`_write_text`, so none is ever seen
half written.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Sequence

import numpy as np

from .circuit import CircuitParams

PARAM_KEYS = ("theta1", "theta2", "g0", "g1", "g2", "g3")
RUN_HEADER = "x,f,fhat,abs_err"


class ParamsFileError(ValueError):
    """Malformed key=value document."""


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest string that round-trips
    return repr(float(value))


def parse_keyvals(text: str) -> dict[str, str]:
    """Parse `key=value` lines; `#` starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamsFileError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ParamsFileError(f"line {lineno}: empty key")
        if key in out:
            raise ParamsFileError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_params(text: str) -> CircuitParams:
    """Parse a six-key parameter document into CircuitParams."""
    kv = parse_keyvals(text)
    unknown = sorted(set(kv) - set(PARAM_KEYS))
    if unknown:
        raise ParamsFileError(f"unknown keys: {', '.join(unknown)}")
    missing = [k for k in PARAM_KEYS if k not in kv]
    if missing:
        raise ParamsFileError(f"missing keys: {', '.join(missing)}")
    values = []
    for key in PARAM_KEYS:
        try:
            values.append(float(kv[key]))
        except ValueError:
            raise ParamsFileError(f"key {key!r}: not a float: {kv[key]!r}") from None
        if not math.isfinite(values[-1]):
            raise ParamsFileError(f"key {key!r}: value must be finite, got {kv[key]!r}")
    return CircuitParams(theta1=values[0], theta2=values[1], g=np.array(values[2:]))


def format_params(params: CircuitParams) -> str:
    values = (params.theta1, params.theta2, *params.g)
    return "".join(f"{key}={_fmt(value)}\n" for key, value in zip(PARAM_KEYS, values))


def _read_text(path: str | os.PathLike) -> str:
    try:
        # utf-8-sig drops a byte-order mark, which would otherwise prefix the first key
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParamsFileError(f"not UTF-8 text ({exc.reason})") from None


def _write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with LF line ends, atomically.

    The text goes to a temporary file in the same directory, which then
    replaces ``path``. A write that fails partway leaves any old file at
    ``path`` as it was and removes the temporary file.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename = path  # name the artifact, not its temporary file
        raise


def read_params_file(path: str | os.PathLike) -> CircuitParams:
    return parse_params(_read_text(path))


def write_params_file(path: str | os.PathLike, params: CircuitParams) -> None:
    _write_text(path, format_params(params))


def format_run_csv(xs: Sequence[float], f: Sequence[float], fhat: Sequence[float]) -> str:
    """Four-column record of target vs approximation over the grid."""
    xs, f, fhat = (np.asarray(a, dtype=float) for a in (xs, f, fhat))
    if not (xs.shape == f.shape == fhat.shape):
        raise ValueError("x, f and fhat columns must have equal length")
    rows = [RUN_HEADER]
    for x, fv, fh in zip(xs, f, fhat):
        rows.append(f"{_fmt(x)},{_fmt(fv)},{_fmt(fh)},{_fmt(abs(fv - fh))}")
    return "\n".join(rows) + "\n"


def write_run_csv(path: str | os.PathLike, xs, f, fhat) -> None:
    _write_text(path, format_run_csv(xs, f, fhat))


def format_trace_csv(trace: Iterable[tuple[int, float]]) -> str:
    rows = ["iteration,best_j"]
    for it, j in trace:
        rows.append(f"{int(it)},{_fmt(j)}")
    return "\n".join(rows) + "\n"


def write_trace_csv(path: str | os.PathLike, trace) -> None:
    _write_text(path, format_trace_csv(trace))


def format_summary(j: float, max_error: float, evals: int, seed: int) -> str:
    return (
        f"J={_fmt(j)}\n"
        f"max_error={_fmt(max_error)}\n"
        f"evals={int(evals)}\n"
        f"seed={int(seed)}\n"
    )


def write_summary(path: str | os.PathLike, j: float, max_error: float, evals: int, seed: int) -> None:
    _write_text(path, format_summary(j, max_error, evals, seed))


def read_config(path: str | os.PathLike) -> dict[str, str]:
    """Optional key=value config; same syntax as parameter files."""
    return parse_keyvals(_read_text(path))


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
