"""Plain-text file formats: parameter files, run records, traces, configs.

Parameter files are key=value lines with `#` comments; floats are written
with shortest round-trip precision so parse(serialize(p)) restores every
bit. The run record is a four-column CSV plus a small summary block kept
in a separate file so the CSV stays exactly header + N rows.

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
        with open(path, "r", encoding="utf-8") as fh:
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
