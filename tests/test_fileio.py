import errno
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qubitfit.fileio as fileio_mod
from qubitfit import CircuitParams, ParamsFileError, format_params, parse_params
from qubitfit.fileio import (
    PARAM_KEYS,
    format_run_csv,
    format_summary,
    format_trace_csv,
    parse_keyvals,
    read_config,
    read_params_file,
    write_params_file,
    write_run_csv,
    write_summary,
    write_trace_csv,
)
from qubitfit.svgplot import write_line_plot

from conftest import random_params

finite = st.floats(allow_nan=False, allow_infinity=False)

# documents near the accepted syntax: key=value lines with known, unknown and
# empty keys, float-like and arbitrary values, comments, and arbitrary lines
values = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " ", "nan", "-inf", "1e999", "1_0", "0x10", " 0.5 ", "1=2"]),
    st.text(),
)
suffixes = st.sampled_from(["", "  # note", "#", "\r"])
lines = st.one_of(
    st.builds(
        "{}={}{}".format,
        st.sampled_from(PARAM_KEYS + ("", " ", "g4", "seed", " theta1 ")),
        values,
        suffixes,
    ),
    st.text(),
)
documents = st.one_of(
    st.text(),
    st.lists(lines, max_size=8).map("\n".join),
    # all six keys in any order with finite values, so that whole documents parse too
    st.tuples(
        st.permutations(PARAM_KEYS),
        st.lists(finite.map(repr), min_size=6, max_size=6),
        st.lists(suffixes, min_size=6, max_size=6),
    ).map(lambda kvc: "\n".join(f"{k}={v}{c}" for k, v, c in zip(*kvc))),
)


def parse_outcome(parse, arg):
    """What ``parse(arg)`` returns, or its ParamsFileError message; any other exception escapes."""
    try:
        return parse(arg)
    except ParamsFileError as exc:
        return f"ParamsFileError: {exc}"


@given(finite, finite, finite, finite, finite, finite)
def test_round_trip_is_exact_for_all_finite_doubles(t1, t2, g0, g1, g2, g3):
    params = CircuitParams(t1, t2, np.array([g0, g1, g2, g3]))
    back = parse_params(format_params(params))
    assert back == params
    assert back.as_vector().tobytes() == params.as_vector().tobytes()  # signs of zero too


@given(documents)
def test_arbitrary_text_parses_or_raises_params_file_error(text):
    keyvals = parse_outcome(parse_keyvals, text)
    params = parse_outcome(parse_params, text)
    if isinstance(params, CircuitParams):
        assert sorted(keyvals) == sorted(PARAM_KEYS)
        assert np.isfinite(params.as_vector()).all()


@given(documents)
def test_read_config_reads_what_parse_keyvals_parses(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "qubitfit.conf"
        path.write_text(text, encoding="utf-8", newline="")
        assert parse_outcome(read_config, path) == parse_outcome(parse_keyvals, text)


def test_format_layout():
    params = CircuitParams(0.5, -0.25, np.array([1.0, 2.0, 3.0, 4.5]))
    assert format_params(params) == (
        "theta1=0.5\ntheta2=-0.25\ng0=1.0\ng1=2.0\ng2=3.0\ng3=4.5\n"
    )


def test_parse_accepts_comments_blank_lines_and_any_order():
    text = """
    # reference point
    g3 = 4.954
    g2=2.272   # inline comment
    g1=2.260
    g0=-0.081

    theta2=1.770
    theta1=1.373e0
    """
    params = parse_params(text)
    assert params.theta1 == 1.373
    assert params.theta2 == 1.770
    assert np.array_equal(params.g, np.array([-0.081, 2.260, 2.272, 4.954]))


def test_parse_rejects_malformed_documents():
    good = format_params(CircuitParams(0.0, 0.0, np.zeros(4)))
    with pytest.raises(ParamsFileError, match="missing"):
        parse_params("theta1=0.0\n")
    with pytest.raises(ParamsFileError, match="duplicate"):
        parse_params(good + "theta1=1.0\n")
    with pytest.raises(ParamsFileError, match="unknown"):
        parse_params(good + "g4=1.0\n")
    with pytest.raises(ParamsFileError, match="not a float"):
        parse_params(good.replace("g2=0.0", "g2=zero"))
    with pytest.raises(ParamsFileError, match="finite"):
        parse_params(good.replace("g2=0.0", "g2=inf"))
    with pytest.raises(ParamsFileError, match="key=value"):
        parse_params("theta1\n")
    with pytest.raises(ParamsFileError, match="line 3"):
        parse_keyvals("a=1\nb=2\nbroken line\n")


def test_file_round_trip(tmp_path):
    params = CircuitParams(0.4, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    path = tmp_path / "p.params"
    write_params_file(path, params)
    assert read_params_file(path) == params
    # byte determinism: rewriting produces identical content
    first = path.read_bytes()
    write_params_file(path, params)
    assert path.read_bytes() == first


def test_bulk_random_round_trips():
    rng = np.random.default_rng(8)
    for _ in range(200):
        params = random_params(rng)
        assert parse_params(format_params(params)) == params


def test_run_csv_rows_and_header(tmp_path):
    xs = np.linspace(-1.5, 1.5, 5)
    f = np.square(xs)
    fhat = f + np.array([0.1, -0.2, 0.0, 0.3, -0.05])
    text = format_run_csv(xs, f, fhat)
    lines = text.strip().split("\n")
    assert lines[0] == "x,f,fhat,abs_err"
    assert len(lines) == 1 + len(xs)
    for line, x, fv, fh in zip(lines[1:], xs, f, fhat):
        cols = [float(c) for c in line.split(",")]
        assert cols == [x, fv, fh, abs(fv - fh)]
        assert abs(cols[3] - abs(cols[1] - cols[2])) <= 1e-15

    path = tmp_path / "run.csv"
    write_run_csv(path, xs, f, fhat)
    assert path.read_text(encoding="utf-8") == text


def test_run_csv_rejects_mismatched_columns():
    with pytest.raises(ValueError):
        format_run_csv([0.0, 1.0], [0.0], [0.0, 1.0])


def test_trace_csv_format():
    text = format_trace_csv([(0, 2.5), (3, 1.25), (10, 0.5)])
    assert text == "iteration,best_j\n0,2.5\n3,1.25\n10,0.5\n"


def test_summary_format():
    text = format_summary(0.03, 0.1, 50010, 42)
    assert text == "J=0.03\nmax_error=0.1\nevals=50010\nseed=42\n"


def test_read_config(tmp_path):
    path = tmp_path / "qubitfit.conf"
    path.write_text("# defaults\nseed=7\nn=50\n", encoding="utf-8")
    assert read_config(path) == {"seed": "7", "n": "50"}


def test_a_file_that_is_not_utf8_raises_params_file_error(tmp_path):
    path = tmp_path / "latin1.params"
    path.write_bytes("theta1=0.5  # café\n".encode("latin-1"))
    for read in (read_params_file, read_config):
        with pytest.raises(ParamsFileError, match="not UTF-8 text"):
            read(path)


def test_negative_zero_round_trips_with_sign():
    params = CircuitParams(-0.0, 0.0, np.array([-0.0, 0.0, 1.0, -1.0]))
    back = parse_params(format_params(params))
    assert math.copysign(1.0, back.theta1) == -1.0
    assert math.copysign(1.0, back.g[0]) == -1.0


# every artifact writer, each writing several lines of text
WRITERS = {
    "params": lambda path: write_params_file(path, CircuitParams(0.1, -0.2, np.arange(4.0))),
    "run_csv": lambda path: write_run_csv(path, [0.0, 1.0], [1.0, 2.0], [1.5, 2.5]),
    "trace_csv": lambda path: write_trace_csv(path, [(0, 2.0), (5, 1.0)]),
    "summary": lambda path: write_summary(path, 1.0, 0.5, 10, 7),
    "svg": lambda path: write_line_plot(path, [0.0, 1.0], [("f", [1.0, 2.0], "#000000")]),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writers_replace_the_file_with_lf_text(name, tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(b"old contents that are longer than nothing\r\n" * 100)
    WRITERS[name](path)
    data = path.read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data and b"old" not in data
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_a_write_that_fails_partway_keeps_the_old_file(name, tmp_path, monkeypatch):
    # the disk fills after half of the text is written
    def half_then_full(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        write = fh.write

        def fail(text):
            write(text[: len(text) // 2])
            fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device", file)

        fh.write = fail
        return fh

    path = tmp_path / "artifact"
    path.write_bytes(b"keep\n")
    monkeypatch.setattr(fileio_mod, "open", half_then_full, raising=False)
    with pytest.raises(OSError) as info:
        WRITERS[name](path)
    assert info.value.errno == errno.ENOSPC
    assert info.value.filename == str(path)  # the artifact, not the temporary file
    assert path.read_bytes() == b"keep\n"
    assert list(tmp_path.iterdir()) == [path]


def test_a_failed_replace_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", src)

    path = tmp_path / "fit.params"
    path.write_bytes(b"keep\n")
    monkeypatch.setattr(fileio_mod.os, "replace", refuse)
    with pytest.raises(PermissionError):
        WRITERS["params"](path)
    assert path.read_bytes() == b"keep\n"
    assert list(tmp_path.iterdir()) == [path]
