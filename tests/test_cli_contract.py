"""The CLI's exit contract as one property, over generated invocations.

``qubitfit.cli.main`` runs in process over generated parameter files,
config files, flags and ``QUBITFIT_SEED`` values, in an empty working
directory each time. Every run ends in one of two ways: exit 0 or 1 with
nothing on stderr (``reproduce`` adds its one failure notice to exit 1),
or exit 2 with exactly one ``error:`` line. argparse's ``SystemExit``
counts as its exit code; any other exception fails the test.

Sizes stay small, so a run takes milliseconds: ``--n`` <= 200,
``--trials`` <= 200, ``--iterations`` <= 50 and ``--restarts`` <= 2.
The size options with a large default are always given as flags, so a
config file cannot raise them.
"""

import codecs
import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitfit.cli as cli_mod
from qubitfit.cli import SEED_ENV, main
from qubitfit.fileio import PARAM_KEYS
from qubitfit.objective import TARGET_IDS


def mostly(valid, faulty):
    """Values of ``valid`` four times in five, else of ``faulty``."""
    return st.sampled_from([False] * 4 + [True]).flatmap(lambda fault: faulty if fault else valid)


BAD_INTS = st.sampled_from(["ten", "1.5", "", "1e3", "nan", "0x10", "-1", "0"])
SEEDS = mostly(st.integers(0, 2**70).map(str), BAD_INTS)

# option -> the values a flag or a config key gives it
OPTION_VALUES = {
    "n": mostly(st.integers(2, 200).map(str), BAD_INTS),
    "x0": mostly(
        st.floats(0.01, 3.0).map(repr),
        st.sampled_from(["-1", "inf", "1e308", "1e200", "1e-320", "wide"]),
    ),
    "iterations": mostly(st.integers(0, 50).map(str), BAD_INTS),
    "restarts": mostly(st.integers(1, 2).map(str), BAD_INTS),
    "seed": SEEDS,
    "trials": mostly(st.integers(1, 200).map(str), BAD_INTS),
    "out_dir": mostly(
        st.sampled_from(["out", "a/b", ".", ""]), st.sampled_from(["p.params", "p.params/sub", "a\x00b"])
    ),
}

# each subcommand's options; those with a large default are always flags
COMMAND_OPTIONS = {
    "fit": ("n", "x0", "iterations", "restarts", "seed", "out_dir"),
    "eval": ("n", "x0", "out_dir"),
    "coeffs": (),
    "verify": ("trials", "seed"),
    "reproduce": ("iterations", "restarts", "seed", "out_dir"),
}
ALWAYS_FLAGS = ("iterations", "restarts", "trials")

POLYS = mostly(
    st.sampled_from(["1,2", "0,0,1", "0.5,-1,0.25", "3"]),
    st.sampled_from(["1e308,1e308", "1e300,0,0,1e300", "1,,2", "nan", "-1,2"]),
)
SPECIAL_VALUES = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e999", "x", ""])


@st.composite
def params_texts(draw):
    """A parameter document: six finite keys in any order, or that with one fault."""
    keys = draw(st.permutations(PARAM_KEYS))
    values = draw(st.lists(st.floats(-4.0, 4.0).map(repr), min_size=6, max_size=6))
    lines = [f"{k}={v}" for k, v in zip(keys, values)]
    i = draw(st.integers(0, 5))
    fault = draw(mostly(st.none(), st.sampled_from(["value", "unknown", "missing", "duplicate"])))
    if fault == "value":
        lines[i] = f"{keys[i]}={draw(SPECIAL_VALUES)}"
    elif fault == "unknown":
        lines.insert(i, "g4=1.0")
    elif fault == "missing":
        del lines[i]
    elif fault == "duplicate":
        lines.append(lines[i])
    return "\n".join(lines) + "\n"


@st.composite
def config_texts(draw):
    """A config document: some of the options, perhaps a misspelled key."""
    names = draw(st.lists(st.sampled_from(sorted(OPTION_VALUES)), unique=True, max_size=4))
    lines = [f"{name}={draw(OPTION_VALUES[name])}" for name in names]
    if draw(mostly(st.just(False), st.just(True))):
        lines.insert(draw(st.integers(0, len(lines))), "trails=5")
    return "\n".join(lines) + "\n"


def encoded(texts):
    """Bytes of a text: plain UTF-8, with a byte-order mark, or with a byte that is not UTF-8."""
    forms = {
        "plain": lambda data: data,
        "bom": lambda data: codecs.BOM_UTF8 + data,
        "not utf-8": lambda data: data + b"\xff\n",
    }
    return st.tuples(texts, mostly(st.sampled_from(["plain", "bom"]), st.just("not utf-8"))).map(
        lambda tf: forms[tf[1]](tf[0].encode("utf-8"))
    )


@st.composite
def invocations(draw):
    """(argv, files to write in the working directory, QUBITFIT_SEED or None)."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command]
    files = {"p.params": draw(encoded(params_texts()))}
    if command in ("eval", "coeffs"):
        argv.append(draw(mostly(st.just("p.params"), st.sampled_from(["missing.params", ".", "a\x00b"]))))
    if command in ("fit", "eval"):
        target = draw(mostly(st.sampled_from(TARGET_IDS), st.just("bogus")))
        argv += ["--target", target]
        # custom needs --poly and the builtin targets take none
        if draw(mostly(st.just(target == "custom"), st.just(target != "custom"))):
            argv += ["--poly", draw(POLYS)]
    for name in COMMAND_OPTIONS[command]:
        if name in ALWAYS_FLAGS or draw(st.booleans()):
            argv += ["--" + name.replace("_", "-"), draw(OPTION_VALUES[name])]
    # coeffs takes no --config and reads no config file
    modes = ["none", "found"] if command == "coeffs" else ["none", "found", "flag", "missing"]
    config = draw(st.sampled_from(modes))
    if config != "none":
        name = "qubitfit.conf" if config == "found" else "c.conf"
        if config != "missing":
            files[name] = draw(encoded(config_texts()))
        if config != "found":
            argv += ["--config", name]
    argv += draw(mostly(st.just([]), st.just(["--frobnicate"])))
    return argv, files, draw(st.none() | SEEDS)


@settings(max_examples=150, deadline=None)
@given(invocations())
def test_every_run_exits_quietly_or_with_one_error_line(invocation):
    argv, files, env_seed = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        for name, data in files.items():
            Path(d, name).write_bytes(data)
        if env_seed is None:
            mp.delenv(SEED_ENV, raising=False)
        else:
            mp.setenv(SEED_ENV, env_seed)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    err = err.getvalue()
    assert "Traceback" not in err, err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert code in (0, 1), (code, err)
        notice = "reproduction checks FAILED\n" if code == 1 and argv[0] == "reproduce" else ""
        assert err == notice, err


NUL_PATH = "a\x00b"
FIT = ["fit", "--target", "quadratic", "--iterations", "5", "--restarts", "1"]
EVAL = ["eval", "p.params", "--target", "quadratic"]
REPRODUCE = ["reproduce", "--iterations", "5", "--restarts", "1"]


@pytest.mark.parametrize(
    ("argv", "config", "message"),
    [
        (FIT + ["--out-dir", NUL_PATH], None, "cannot create output directory"),
        (FIT, f"out_dir={NUL_PATH}\n", "cannot create output directory"),
        (EVAL + ["--out-dir", NUL_PATH], None, "cannot create output directory"),
        (EVAL, f"out_dir={NUL_PATH}\n", "cannot create output directory"),
        (REPRODUCE + ["--out-dir", NUL_PATH], None, "cannot create output directory"),
        (REPRODUCE, f"out_dir={NUL_PATH}\n", "cannot create output directory"),
        (["coeffs", NUL_PATH], None, "cannot read parameter file"),
        (["eval", NUL_PATH, "--target", "quadratic"], None, "cannot read parameter file"),
        (["verify", "--trials", "5", "--config", NUL_PATH], None, "cannot read config file"),
    ],
)
def test_a_nul_byte_in_a_path_is_one_error_line_naming_it_before_any_training(
    argv, config, message, tmp_path, monkeypatch, capsys
):
    # no system call takes a path with a NUL byte; the run names the path by
    # its repr and stops before it trains or writes anything
    monkeypatch.chdir(tmp_path)
    Path("p.params").write_text(
        "theta1=0.4\ntheta2=-0.7\ng0=0.5\ng1=-1.2\ng2=1.8\ng3=-0.3\n", encoding="utf-8"
    )
    if config is not None:
        Path("qubitfit.conf").write_text(config, encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli_mod, "optimize", lambda *args: calls.append(args))
    monkeypatch.setattr(cli_mod, "run_reproduction", lambda *args, **kw: calls.append(args))
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message} {NUL_PATH!r}: embedded null byte\n"
    assert calls == [] and sorted(tmp_path.iterdir()) == before
