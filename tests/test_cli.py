import codecs
import errno
import inspect
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qubitfit
import qubitfit.cli as cli_mod
import qubitfit.fileio as fileio_mod
import qubitfit.verify as verify_mod
from qubitfit import (
    OptimizerConfig,
    get_target,
    make_grid,
    performance_index,
    published_params,
    read_params_file,
    run_reproduction,
    write_params_file,
)
from qubitfit.cli import main
from qubitfit.fileio import read_config

from conftest import child_env, scale_amplitudes


BUNDLED_QUADRATIC = str(Path(qubitfit.__file__).parent / "data" / "paper" / "quadratic.params")
BUNDLED_SIGMOID = str(Path(qubitfit.__file__).parent / "data" / "paper" / "sigmoid.params")


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("QUBITFIT_SEED", raising=False)


def fit_args(out_dir, *extra):
    return [
        "fit", "--target", "quadratic", "--iterations", "200", "--restarts", "2",
        "--seed", "11", "--out-dir", str(out_dir), *extra,
    ]


def read_summary(path):
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


def test_fit_writes_all_outputs(tmp_path, capsys):
    assert main(fit_args(tmp_path)) == 0
    assert "target=quadratic" in capsys.readouterr().out

    params_path = tmp_path / "quadratic.params"
    run_path = tmp_path / "quadratic_run.csv"
    trace_path = tmp_path / "quadratic_trace.csv"
    summary_path = tmp_path / "quadratic_summary.txt"
    svg_path = tmp_path / "quadratic.svg"
    for path in (params_path, run_path, trace_path, summary_path, svg_path):
        assert path.is_file(), path

    run_lines = run_path.read_text(encoding="utf-8").strip().split("\n")
    assert run_lines[0] == "x,f,fhat,abs_err"
    assert len(run_lines) == 1 + 30  # default grid size

    summary = read_summary(summary_path)
    assert summary["seed"] == "11"
    assert int(summary["evals"]) == 2 * (200 + 1)

    # the summary index must equal an in-process recomputation exactly
    params = read_params_file(params_path)
    j = performance_index(params, get_target("quadratic"), make_grid(30, 1.5))
    assert float(summary["J"]) == j

    root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 2
    assert all(len(p.get("points").split()) == 200 for p in polylines)

    trace_lines = trace_path.read_text(encoding="utf-8").strip().split("\n")
    assert trace_lines[0] == "iteration,best_j"
    js = [float(line.split(",")[1]) for line in trace_lines[1:]]
    assert all(b <= a for a, b in zip(js, js[1:]))


def test_fit_outputs_are_byte_identical_across_runs(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(fit_args(d1)) == 0
    assert main(fit_args(d2)) == 0
    for name in ("quadratic.params", "quadratic_run.csv", "quadratic_trace.csv",
                 "quadratic_summary.txt", "quadratic.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_fit_rejects_degenerate_grid(tmp_path, capsys):
    assert main(fit_args(tmp_path, "--n", "1")) == 2
    assert "error:" in capsys.readouterr().err


def test_fit_rejects_bad_optimizer_settings(tmp_path):
    assert main(fit_args(tmp_path, "--restarts", "0")) == 2


def test_fit_custom_target_needs_poly(tmp_path, capsys):
    args = ["fit", "--target", "custom", "--iterations", "10", "--restarts", "1",
            "--out-dir", str(tmp_path)]
    assert main(args) == 2
    assert "custom" in capsys.readouterr().err
    args += ["--poly", "0,0,1"]
    assert main(args) == 0
    assert (tmp_path / "custom.params").is_file()


def test_seed_resolution_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # controlled spot for config discovery

    # env var fills in when no flag is given and no config exists
    monkeypatch.setenv("QUBITFIT_SEED", "77")
    d = tmp_path / "env"
    args = ["fit", "--target", "quadratic", "--iterations", "5", "--restarts", "1",
            "--out-dir", str(d)]
    assert main(args) == 0
    assert read_summary(d / "quadratic_summary.txt")["seed"] == "77"

    # a config file in the working directory beats the env var
    (tmp_path / "qubitfit.conf").write_text("seed=5\n", encoding="utf-8")
    d = tmp_path / "conf"
    args[-1] = str(d)
    assert main(args) == 0
    assert read_summary(d / "quadratic_summary.txt")["seed"] == "5"

    # an explicit flag beats both
    d = tmp_path / "flag"
    args[-1] = str(d)
    assert main(args + ["--seed", "9"]) == 0
    assert read_summary(d / "quadratic_summary.txt")["seed"] == "9"


def test_default_seed_is_42(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no config file here
    d = tmp_path / "out"
    args = ["fit", "--target", "quadratic", "--iterations", "5", "--restarts", "1",
            "--out-dir", str(d)]
    assert main(args) == 0
    assert read_summary(d / "quadratic_summary.txt")["seed"] == "42"


def test_bad_env_seed_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QUBITFIT_SEED", "not-a-number")
    args = ["fit", "--target", "quadratic", "--iterations", "5", "--restarts", "1",
            "--out-dir", str(tmp_path)]
    assert main(args) == 2
    assert "QUBITFIT_SEED" in capsys.readouterr().err


def test_config_flag_and_missing_config(tmp_path):
    conf = tmp_path / "other.conf"
    conf.write_text("n=10\n", encoding="utf-8")
    d = tmp_path / "out"
    args = ["fit", "--target", "quadratic", "--iterations", "5", "--restarts", "1",
            "--seed", "3", "--out-dir", str(d), "--config", str(conf)]
    assert main(args) == 0
    lines = (d / "quadratic_run.csv").read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 1 + 10

    assert main(args[:-1] + [str(tmp_path / "nope.conf")]) == 2


def test_bad_config_value_is_a_usage_error(tmp_path):
    conf = tmp_path / "broken.conf"
    conf.write_text("n=ten\n", encoding="utf-8")
    args = ["fit", "--target", "quadratic", "--iterations", "5", "--restarts", "1",
            "--seed", "3", "--out-dir", str(tmp_path), "--config", str(conf)]
    assert main(args) == 2


def test_unknown_config_key_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "qubitfit.conf").write_text("iteratons=5\n", encoding="utf-8")
    assert main(fit_args(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "iteratons" in err
    assert not (tmp_path / "out").exists()


def test_eval_prints_index_matching_library(tmp_path, capsys):
    params = published_params("quadratic")
    path = tmp_path / "q.params"
    write_params_file(path, params)
    assert main(["eval", str(path), "--target", "quadratic", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    printed = {k: float(v) for k, v in (line.split("=", 1) for line in out.strip().split("\n"))}
    j = performance_index(params, get_target("quadratic"), make_grid(30, 1.5))
    assert printed["J"] == j
    assert printed["J"] <= 0.1  # reference parameters stay near the reported index
    assert printed["max_error"] ** 2 <= printed["J"]
    assert (tmp_path / "quadratic_run.csv").is_file()


def test_eval_rejects_unreadable_or_malformed_params(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "missing.params"), "--target", "quadratic",
                 "--out-dir", str(tmp_path)]) == 2
    bad = tmp_path / "bad.params"
    bad.write_text("theta1=0.0\n", encoding="utf-8")
    assert main(["eval", str(bad), "--target", "quadratic", "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_coeffs_uniform_diagonal(tmp_path, capsys):
    path = tmp_path / "u.params"
    path.write_text(
        "theta1=0.25\ntheta2=-0.8\ng0=1.0\ng1=1.0\ng2=1.0\ng3=1.0\n", encoding="utf-8"
    )
    assert main(["coeffs", str(path)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    values = [float(line.split("=", 1)[1]) for line in out]
    assert [line.split("=", 1)[0] for line in out] == ["a0", "a1", "a2", "a3"]
    assert values == [1.0, 0.0, 0.0, 0.0]


def test_coeffs_published_gaussian_is_nearly_even(tmp_path, capsys):
    path = tmp_path / "g.params"
    write_params_file(path, published_params("gaussian"))
    assert main(["coeffs", str(path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    a = [float(line.split("=", 1)[1]) for line in lines]
    # an even target should leave almost no odd structure in the fit
    assert max(abs(a[1]), abs(a[3])) <= 0.01 * max(abs(a[0]), abs(a[2]))


def test_coeffs_parse_failure(tmp_path):
    bad = tmp_path / "bad.params"
    bad.write_text("theta1=x\n", encoding="utf-8")
    assert main(["coeffs", str(bad)]) == 2


def test_coeffs_that_overflow_are_a_one_line_usage_error(tmp_path, capsys):
    # a valid file whose diagonal sums overflow once gave two numpy
    # warnings, then a0=inf ... a3=inf, and exit 0
    path = tmp_path / "huge.params"
    path.write_text(
        "theta1=0.1\ntheta2=0.2\ng0=1e308\ng1=1e308\ng2=1e308\ng3=1e308\n", encoding="utf-8"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would add lines to stderr
        assert main(["coeffs", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: cubic coefficients are not finite (a0=inf, a1=-inf, a2=-inf, a3=inf)\n"
    )


@pytest.mark.parametrize("argv, name, kind", [
    (["coeffs", "bad.params"], "bad.params", "parameter"),
    (["verify", "--trials", "5", "--config", "bad.conf"], "bad.conf", "config"),
    (["verify", "--trials", "5"], "qubitfit.conf", "config"),  # found in the working directory
])
def test_a_file_that_is_not_utf8_is_a_usage_error(argv, name, kind, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(b"seed=\xff\n")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: bad {kind} file {name}: not UTF-8 text (invalid start byte)\n")
    assert [p.name for p in tmp_path.iterdir()] == [name]


@pytest.mark.parametrize("found", [False, True], ids=["flag", "found"])
@pytest.mark.parametrize("case", ["missing", "directory", "unreadable"])
def test_a_config_file_that_cannot_be_read_is_one_error_line_naming_it(
    case, found, tmp_path, monkeypatch, capsys
):
    # an unreadable one once escaped main as a traceback, and a directory given
    # to --config read "config file not found"; found in the working directory,
    # a missing config is a link to no file, as an absent name is skipped
    monkeypatch.chdir(tmp_path)
    name = "qubitfit.conf" if found else "c.conf"
    if case == "missing" and found:
        os.symlink("nowhere.conf", name)
    elif case == "directory":
        os.mkdir(name)
    elif case == "unreadable":
        # chmod would not stop a reader running as root
        Path(name).write_text("trials=5\n", encoding="utf-8")

        def deny(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(path))

        monkeypatch.setattr(fileio_mod, "_read_text", deny)
    argv = ["verify", "--trials", "5"] + ([] if found else ["--config", name])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read config file {name}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name, text, argv, read", [
    ("p.params", "theta1=0.3\ntheta2=-0.7\ng0=0.5\ng1=-1.2\ng2=1.8\ng3=-0.3\n",
     ["coeffs", "p.params"], read_params_file),
    ("qubitfit.conf", "trials=7\nseed=3\n", ["verify"], read_config),
], ids=["params", "config"])
def test_a_byte_order_mark_is_read_as_nothing(name, text, argv, read, tmp_path, monkeypatch, capsys):
    # it once became an invisible part of the first key: "unknown keys: \ufefftheta1"
    monkeypatch.chdir(tmp_path)
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    plain = read(path)
    assert main(argv) == 0
    printed = capsys.readouterr()
    assert printed.err == "" and printed.out
    path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    assert read(path) == plain
    assert main(argv) == 0
    assert capsys.readouterr() == printed


def test_verify_cli_passes(capsys):
    assert main(["verify", "--trials", "120", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 4
    assert all("PASS (120 trials)" in line for line in lines)


def test_verify_cli_zero_trials_is_usage_error(capsys):
    assert main(["verify", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["reproduce", "--restarts", "0", "--iterations", "5"],
    ["verify", "--trials", "5", "--seed", "-1"],
    ["fit", "--target", "custom", "--poly", "1e308,1e308,1e308", "--iterations", "5", "--restarts", "1"],
    # an empty coefficient would shift every later one down one degree
    ["fit", "--target", "custom", "--poly", "1,,2", "--iterations", "5", "--restarts", "1"],
    ["fit", "--target", "custom", "--poly", "1,2,", "--iterations", "5", "--restarts", "1"],
    ["eval", BUNDLED_QUADRATIC, "--target", "custom", "--poly", "1e308,1e308,1e308"],
    ["fit", "--target", "gaussian", "--seed", "-1", "--out-dir", "new"],
    # a builtin target takes no coefficients; they were once silently ignored
    ["fit", "--target", "quadratic", "--poly", "1,2,3"],
])
def test_invalid_values_give_one_line_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would add lines to stderr
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    # nothing is written, and no output directory is created
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["fit", "--target", "quadratic", "--x0", "1e308", "--iterations", "5", "--restarts", "1"],
    ["eval", BUNDLED_QUADRATIC, "--target", "quadratic", "--x0", "1e308"],
])
def test_an_overflowing_grid_span_is_a_one_line_usage_error(argv, tmp_path, monkeypatch, capsys):
    # it once gave NaN grid points, numpy warnings on stderr and "performance
    # index is not finite at the starting point"
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: grid span 2*x0 must not overflow, got x0=1e+308\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, err", [
    (["fit", "--target", "quadratic", "--x0", "1e200"],
     "error: target 'quadratic' overflows the performance index on the grid with x0=1e+200\n"),
    (["fit", "--target", "custom", "--poly", "1e300,0,0,1e300"],
     "error: target 'custom' overflows the performance index on the grid with x0=1.5\n"),
    (["fit", "--target", "custom", "--poly", "1,nan"],
     "error: polynomial target coefficients must all be finite\n"),
])
def test_a_target_that_overflows_is_named_on_one_line(argv, err, tmp_path, monkeypatch, capsys):
    # the target's own values overflow the index, or are not finite, on a
    # valid grid: the message names the target and the grid, not a start
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--iterations", "5", "--restarts", "1"]) == 2
    assert capsys.readouterr() == ("", err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, err", [
    # a library ValueError is its own message
    (["verify", "--trials", "0"], "error: trials must be >= 1, got 0\n"),
    (["reproduce", "--restarts", "0", "--iterations", "5"], "error: restarts must be >= 1, got 0\n"),
    (["verify", "--trials", "5", "--seed", "-1"], "error: seed must be >= 0, got -1\n"),
    # a mapping in the CLI adds what the library cannot know
    (["fit", "--target", "custom", "--poly", "1,,2"], "error: bad polynomial coefficients: '1,,2'\n"),
    (["coeffs", "missing.params"], "error: cannot read parameter file missing.params: "
     f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'missing.params'\n"),
])
def test_a_usage_error_is_its_exact_message_on_one_line(argv, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)
    assert list(tmp_path.iterdir()) == []


def test_a_value_error_from_any_library_call_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # no call site maps it: main reports every ValueError as one line, exit 2
    def invalid(*args):
        raise ValueError("the index rejects its input")

    monkeypatch.setattr(cli_mod, "performance_index", invalid)
    monkeypatch.chdir(tmp_path)
    assert main(["eval", BUNDLED_QUADRATIC, "--target", "quadratic"]) == 2
    assert capsys.readouterr() == ("", "error: the index rejects its input\n")
    assert list(tmp_path.iterdir()) == []


def test_verify_cli_rejects_a_non_integer_seed_on_one_line(monkeypatch, capsys):
    # a seed option that let a float through must not truncate it
    monkeypatch.setitem(cli_mod.OPTIONS, "seed", (float, 42.0, "seed"))
    assert main(["verify", "--trials", "5", "--seed", "1.5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1, err


NO_MEMORY = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"


@pytest.mark.parametrize("argv, name, exc, err", [
    (["verify", "--trials", "100000000000"], "run_suites", MemoryError(),
     "error: out of memory\n"),
    (["eval", BUNDLED_QUADRATIC, "--target", "quadratic", "--n", "1000000000000"], "make_grid",
     MemoryError(NO_MEMORY),
     f"error: out of memory: {NO_MEMORY}\n"),
    (["fit", "--target", "quadratic", "--n", "1000000000000"], "make_grid", MemoryError(NO_MEMORY),
     f"error: out of memory: {NO_MEMORY}\n"),
])
def test_running_out_of_memory_is_a_usage_error(argv, name, exc, err, tmp_path, monkeypatch, capsys):
    # the patched call fails as numpy's allocation would, without allocating
    def no_memory(*args):
        raise exc

    monkeypatch.setattr(cli_mod, name, no_memory)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)
    assert list(tmp_path.iterdir()) == []


def test_verify_cli_reports_failures_with_exit_1(monkeypatch, capsys):
    real = verify_mod.circuit_expectation
    monkeypatch.setattr(
        verify_mod, "circuit_expectation", lambda params, x: real(params, x) + 1e-6
    )
    assert main(["verify", "--trials", "30", "--seed", "10"]) == 1
    out = capsys.readouterr().out
    assert "equivalence: FAIL" in out
    assert "first failure at draw 0 of seed 10: " in out


def test_verify_cli_reports_a_nan_closed_form_with_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(
        verify_mod, "closed_form_expectation", lambda params, x: np.full(np.shape(x), np.nan)
    )
    assert main(["verify", "--trials", "30", "--seed", "10"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("equivalence: FAIL (30/30 failed; first failure at draw 0 of seed 10: "
                        "|sim - closed| = nan)")
    assert all(line.endswith("PASS (30 trials)") for line in lines[1:])


@pytest.mark.parametrize("below", [None, "out", "out/deeper"])
def test_fit_rejects_an_out_dir_under_a_regular_file_before_training(
    below, tmp_path, monkeypatch, capsys
):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n", encoding="utf-8")
    out = blocker / below if below else blocker
    calls = []
    monkeypatch.setattr(cli_mod, "optimize", lambda *args: calls.append(args))
    assert main(fit_args(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}:")
    assert err.count("\n") == 1, err
    assert calls == []
    # nothing is written or created
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("case", ["under an executable file", "name too long", "not writable", "a dangling link"])
def test_an_out_dir_that_cannot_be_created_stops_fit_before_training(case, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli_mod, "optimize", lambda *args: calls.append(args))
    out = tmp_path / "out"
    if case == "under an executable file":
        # an executable file passes the access check: only the type check stops it
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n", encoding="utf-8")
        blocker.chmod(0o755)
        out = blocker / "out"
    elif case == "name too long":
        out = tmp_path / ("a" * 300) / "out"  # Path.exists() raises, it does not say False
    elif case == "a dangling link":
        out.symlink_to(tmp_path / "nowhere")  # Path.exists() says False, and mkdir fails
    else:
        # the access check, as an unprivileged user would meet it
        monkeypatch.setattr(cli_mod.os, "access", lambda path, mode: False)
    assert main(fit_args(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}: ") and err.count("\n") == 1, err
    assert calls == []


def test_eval_reports_an_out_dir_it_cannot_create(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n", encoding="utf-8")
    out = blocker / "out"
    assert main(["eval", BUNDLED_QUADRATIC, "--target", "quadratic", "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot create output directory {out}: ")
    assert captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("argv, blocked", [
    (["fit", "--target", "quadratic", "--iterations", "5", "--restarts", "1"], "quadratic.params"),
    (["eval", BUNDLED_QUADRATIC, "--target", "quadratic"], "quadratic_run.csv"),
    (["reproduce", "--iterations", "5", "--restarts", "1"], "quadratic_published.svg"),
])
def test_an_output_that_cannot_be_written_is_one_error_line(argv, blocked, tmp_path, capsys):
    # a directory where an artifact goes: the write fails after the checks pass
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(argv + ["--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write outputs to {out}: ")
    assert captured.err.count("\n") == 1, captured.err


def test_fit_prints_its_result_then_the_params_path(tmp_path, capsys):
    assert main(fit_args(tmp_path, "--iterations", "5")) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = read_summary(tmp_path / "quadratic_summary.txt")
    assert lines == [
        f"target=quadratic J={summary['J']} max_error={summary['max_error']} evals=12 seed=11",
        f"wrote {tmp_path / 'quadratic.params'}",
    ]


@pytest.mark.parametrize("passed, code, verdict, err", [
    (True, 0, "all reproduction checks passed\n", ""),
    (False, 1, "", "reproduction checks FAILED\n"),
])
def test_reproduce_cli_prints_the_table_the_wall_time_and_the_verdict(
    passed, code, verdict, err, tmp_path, monkeypatch, capsys
):
    table = tmp_path / "report.md"
    table.write_text("| table |\n", encoding="utf-8")
    report = SimpleNamespace(table_path=table, retrain_seconds=1.23, all_passed=passed)
    monkeypatch.setattr(cli_mod, "run_reproduction", lambda *args, **kw: report)
    assert main(["reproduce", "--out-dir", str(tmp_path / "r")]) == code
    assert capsys.readouterr() == ("| table |\n\nretraining wall time: 1.2 s\n" + verdict, err)


def test_fit_creates_a_nested_out_dir(tmp_path):
    out = tmp_path / "a" / "b"
    assert main(fit_args(out, "--iterations", "5")) == 0
    assert (out / "quadratic.params").is_file()


def test_verify_cli_reports_unnormalized_states_with_exit_1(monkeypatch, capsys):
    scale_amplitudes(monkeypatch, 1.001)
    assert main(["verify", "--trials", "30", "--seed", "10"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the scaled amplitudes move the simulator output as well as its states
    assert lines == [
        "equivalence: FAIL (30/30 failed; first failure at draw 0 of seed 10: "
        "|sim - closed| = 2.415e-03)",
        "normalization: FAIL (30/30 failed; first failure at draw 0 of seed 10: "
        "| |psi|^2 - 1 | = 4.006e-03)",
        "boundedness: PASS (30 trials)",
        "remainder: PASS (30 trials)",
    ]


def test_reproduce_cli_writes_report_and_artifacts(tmp_path, capsys):
    d = tmp_path / "repro"
    rc = main(["reproduce", "--iterations", "150", "--restarts", "2", "--seed", "11",
               "--out-dir", str(d)])
    table = (d / "report.md").read_text(encoding="utf-8")
    rows = [line for line in table.splitlines() if line.startswith("|") and "---" not in line]
    assert len(rows) == 1 + 6  # header + 3 published + 3 retrained
    for target in ("quadratic", "gaussian", "sigmoid"):
        assert (d / f"{target}.svg").is_file()
        assert (d / f"{target}_published.svg").is_file()
        assert (d / f"{target}.params").is_file()
    # published rows always meet their thresholds; exit mirrors the table
    published = [r for r in rows[1:] if "published" in r]
    assert all("pass" in r for r in published)
    assert rc == (0 if "FAIL" not in table else 1)
    out = capsys.readouterr().out
    assert "| setting | target |" in out
    # the wall time is reported on stdout only, so report.md stays deterministic
    assert "retraining wall time: " in out
    assert "wall time" not in table


def test_help_screens_exit_zero(capsys):
    out_dirs = {"fit": ".", "eval": ".", "reproduce": "reproduction"}
    for sub in ("fit", "eval", "coeffs", "verify", "reproduce"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # help lines wrap with the terminal
        assert out  # usage text printed
        # each subcommand's help states its own default, not the table's
        if sub in out_dirs:
            assert f"--out-dir OUT_DIR output directory (default {out_dirs[sub]})" in out, out
        else:
            assert "--out-dir" not in out, out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: qubitfit: ") and err.count("\n") == 1, err


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--target", "quadratic", "--frobnicate"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: qubitfit") and "--frobnicate" in err, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("argv, err", [
    (["fit", "--target", "quadratic", "--n", "ten"],
     "error: qubitfit fit: argument --n: invalid int value: 'ten'\n"),
    (["eval", BUNDLED_QUADRATIC, "--target", "quadratic", "--x0", "wide"],
     "error: qubitfit eval: argument --x0: invalid float value: 'wide'\n"),
])
def test_a_malformed_flag_value_is_a_one_line_usage_error(argv, err, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", err)


@pytest.fixture
def resolved(tmp_path, monkeypatch):
    """Record the option values each subcommand hands on, without training,
    verifying or reproducing anything; the working directory is an empty one."""
    seen = {}
    real_make_grid, real_optimize = cli_mod.make_grid, cli_mod.optimize

    def make_grid(n, x0):
        seen.update(n=n, x0=x0)
        return real_make_grid(n, x0)

    def optimize(target, grid, cfg):
        seen.update(iterations=cfg.iterations, restarts=cfg.restarts, seed=cfg.seed)
        return real_optimize(target, grid, OptimizerConfig(iterations=1, restarts=1))

    def write_run_csv(path, *columns):
        seen.update(out_dir=path.parent)

    def run_suites(trials, seed):
        seen.update(trials=trials, seed=seed)
        return []

    def run_reproduction(out, *, seed, iterations, restarts):
        seen.update(out_dir=out, seed=seed, iterations=iterations, restarts=restarts)
        table = tmp_path / "table.md"
        table.write_text("", encoding="utf-8")
        return SimpleNamespace(table_path=table, retrain_seconds=0.0, all_passed=True)

    for fake in (make_grid, optimize, write_run_csv, run_suites, run_reproduction):
        monkeypatch.setattr(cli_mod, fake.__name__, fake)
    monkeypatch.chdir(tmp_path)
    return seen


SUBCOMMANDS = {
    "fit": ["fit", "--target", "quadratic"],
    "eval": ["eval", BUNDLED_QUADRATIC, "--target", "quadratic"],
    "verify": ["verify"],
    "reproduce": ["reproduce"],
}

# option -> (flag value, config value, value read back for each)
SETTINGS = {
    "n": ("7", "9", int),
    "x0": ("0.5", "0.25", float),
    "iterations": ("3", "4", int),
    "restarts": ("2", "3", int),
    "seed": ("11", "12", int),
    "trials": ("5", "6", int),
    "out_dir": ("flag", "conf", Path),
}


@pytest.mark.parametrize("command, name, default", [
    ("fit", "n", 30), ("fit", "x0", 1.5), ("fit", "iterations", 5000), ("fit", "restarts", 10),
    ("fit", "seed", 42), ("fit", "out_dir", Path(".")),
    ("eval", "n", 30), ("eval", "x0", 1.5), ("eval", "out_dir", Path(".")),
    ("verify", "trials", 1000), ("verify", "seed", 42),
    ("reproduce", "iterations", 5000), ("reproduce", "restarts", 10), ("reproduce", "seed", 42),
    ("reproduce", "out_dir", Path("reproduction")),
])
def test_each_option_resolves_flag_then_config_then_default(command, name, default, resolved, tmp_path):
    flag_value, config_value, read = SETTINGS[name]
    flag = ["--" + name.replace("_", "-"), flag_value]

    def run(*extra):
        resolved.clear()
        assert main(SUBCOMMANDS[command] + list(extra)) == 0
        return resolved[name]

    assert run() == default
    (tmp_path / "qubitfit.conf").write_text(f"{name}={config_value}\n", encoding="utf-8")
    assert run() == read(config_value)
    assert run(*flag) == read(flag_value)


def test_the_paper_budget_and_seed_are_declared_once_by_the_optimizer_config(resolved):
    # fit, reproduce and run_reproduction all default to OptimizerConfig's fields
    cfg = OptimizerConfig()
    want = {"iterations": cfg.iterations, "restarts": cfg.restarts, "seed": cfg.seed}
    for command in ("fit", "reproduce"):
        resolved.clear()
        assert main(SUBCOMMANDS[command]) == 0
        assert {name: resolved[name] for name in want} == want
    defaults = inspect.signature(run_reproduction).parameters
    assert {name: defaults[name].default for name in want} == want


@pytest.mark.parametrize("command", ["fit", "verify", "reproduce"])
def test_seed_from_the_environment_sits_between_config_and_default(command, resolved, tmp_path, monkeypatch):
    def run():
        resolved.clear()
        assert main(SUBCOMMANDS[command]) == 0
        return resolved["seed"]

    monkeypatch.setenv("QUBITFIT_SEED", "77")
    assert run() == 77
    (tmp_path / "qubitfit.conf").write_text("seed=5\n", encoding="utf-8")
    assert run() == 5


@pytest.mark.parametrize("command", ["fit", "eval", "verify", "reproduce"])
def test_a_malformed_config_value_fails_every_subcommand_that_reads_config(
    command, resolved, tmp_path, capsys
):
    # checked when the file is read, also where the subcommand has no use for the key
    (tmp_path / "qubitfit.conf").write_text("n=ten\n", encoding="utf-8")
    assert main(SUBCOMMANDS[command]) == 2
    assert capsys.readouterr() == (
        "", "error: config key 'n': invalid literal for int() with base 10: 'ten'\n"
    )
    assert resolved == {}
    assert main(["coeffs", BUNDLED_QUADRATIC]) == 0  # reads no config file


def run_cli_child(argv, cwd, env=None, **kwargs):
    """``python -m qubitfit.cli`` in a fresh interpreter, where the CLI is the first to load numpy."""
    return subprocess.run([sys.executable, "-m", "qubitfit.cli", *argv], cwd=cwd, env=env or child_env(),
                          stderr=subprocess.PIPE, timeout=120, **kwargs)


def test_eval_prints_the_same_bytes_on_one_cpu_as_on_all(tmp_path):
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    if len(cpus) < 2:
        pytest.skip(f"{len(cpus) or 'unknown'} usable CPU(s): no second CPU to split a dot product onto")
    # the index over 20001 points is one dot product, which OpenBLAS splits
    # across as many threads as it has CPUs; an inherited thread count must not matter
    env = child_env(OPENBLAS_NUM_THREADS=str(len(cpus)))
    argv = ["eval", BUNDLED_SIGMOID, "--target", "sigmoid", "--n", "20001"]
    outs = []
    for name, narrow in (("one", lambda: os.sched_setaffinity(0, {min(cpus)})), ("all", None)):
        done = run_cli_child(argv + ["--out-dir", name], tmp_path, env, stdout=subprocess.PIPE, preexec_fn=narrow)
        assert (done.returncode, done.stderr) == (0, b"")
        outs.append(done.stdout)
    assert outs[0].startswith(b"J=")
    assert outs[0] == outs[1]


def test_a_reader_that_left_ends_in_exit_141_without_a_traceback(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader left before the CLI wrote a byte
    try:
        done = run_cli_child(["coeffs", BUNDLED_QUADRATIC], tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")
