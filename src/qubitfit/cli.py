"""Command line interface.

Subcommands: fit, eval, coeffs, verify, reproduce. Exit codes: 0 success,
1 verification or acceptance failure, 2 usage or parse error, 141 stdout
closed by its reader (128 + SIGPIPE, as a shell reports it). The library
raises ``ValueError`` for every invalid input, so ``main`` reports any
``ValueError``, a ``CliError`` included, as a usage error: one ``error:``
line on stderr and exit 2. A handler catches one itself only to add context.

Options are declared once, in ``OPTIONS``, and each resolves once, before the
subcommand runs: explicit flag, then the key of the same name in the config
file (``--config`` or ``./qubitfit.conf``; its values are cast when it is
read), then the QUBITFIT_SEED environment variable (seed only), then the default.

Every subcommand runs with numpy's overflow and invalid-value warnings off:
a non-finite result is always reported, as exit 2 or a failed check, so a
warning would only add lines to stderr.

Where this module is the first to load numpy, OpenBLAS runs on one thread,
whatever ``OPENBLAS_NUM_THREADS`` says: split across threads, a dot product of
over 10000 elements (``eval --n 20001``) sums in another order per CPU count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

if "numpy" not in sys.modules:  # read by OpenBLAS once, when numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .analytic import cubic_coefficients
from .chemotaxis import OptimizerConfig, optimize
from .circuit import circuit_expectation_grid
from .fileio import (
    ParamsFileError,
    read_config,
    read_params_file,
    write_line_plot,  # noqa: F401  (traced by perfbench/spans.py)
    write_params_file,
    write_run_csv,
    write_summary,
    write_trace_csv,
)
from .objective import TARGET_IDS, get_target, make_grid, max_pointwise_error, performance_index
from .reproduce import DEFAULT_N, DEFAULT_X0, run_reproduction, write_comparison_plot
from .verify import run_suites

CONFIG_NAME = "qubitfit.conf"
SEED_ENV = "QUBITFIT_SEED"

# name -> (type, default, help): every option a flag or a config key sets;
# any other config key is a typo. The help is formatted with the default.
OPTIONS = {
    "n": (int, DEFAULT_N, "number of grid samples (default {})"),
    "x0": (float, DEFAULT_X0, "half-width of the sample interval (default {})"),
    "iterations": (int, OptimizerConfig.iterations, "optimizer iterations per restart (default {})"),
    "restarts": (int, OptimizerConfig.restarts, "independent restarts (default {})"),
    "seed": (int, OptimizerConfig.seed, f"master RNG seed (default ${SEED_ENV} or {{}})"),
    "trials": (int, 1000, "number of random draws (default {})"),
    "out_dir": (Path, Path("."), "output directory (default {})"),
}

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_PIPE = 141


class CliError(ValueError):
    """A usage error found by the CLI itself, where the library would not raise one."""


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line on one line, like every other usage error."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


def _load_config(path: str | None) -> dict:
    """The config file's values, each cast by its option's type."""
    if path is None:
        # only an absent name is skipped: a directory, a dangling link or an
        # unreadable file by that name is an error, as it would be by --config
        if not os.path.lexists(CONFIG_NAME):
            return {}
        path = CONFIG_NAME
    config = _read_file("config file", path, read_config)
    unknown = sorted(set(config) - set(OPTIONS))
    if unknown:
        raise CliError(f"unknown key(s) in config file {path}: {', '.join(unknown)}")
    values = {}
    for key, text in config.items():
        try:
            values[key] = OPTIONS[key][0](text)
        except ValueError as exc:
            raise CliError(f"config key {key!r}: {exc}") from exc
    return values


def _resolve_options(args) -> None:
    """Set each of the subcommand's options that no flag set: from the config
    file, else QUBITFIT_SEED (seed only), else the default."""
    if not args.options:
        return
    config = _load_config(args.config)
    for name, default in args.options.items():
        if getattr(args, name) is not None:
            continue
        if name in config:
            value = config[name]
        elif name == "seed" and os.environ.get(SEED_ENV):
            raw = os.environ[SEED_ENV]
            try:
                value = int(raw)
            except ValueError:
                raise CliError(f"{SEED_ENV} must be an integer, got {raw!r}") from None
        else:
            value = default
        setattr(args, name, value)


def _parse_poly(text: str) -> list[float]:
    # an empty token is an error, not skipped: skipping it would shift every
    # later coefficient down one degree
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise CliError(f"bad polynomial coefficients: {text!r}") from None


def _make_target(args):
    if args.poly is not None and args.target != "custom":
        raise CliError("--poly needs --target custom")
    return get_target(args.target, None if args.poly is None else _parse_poly(args.poly))


def _reject_nul(path, what: str) -> None:
    """Reject a path with a NUL byte, naming it by its repr: no system call takes
    one, ``Path.exists()`` calls it absent, and ``os`` raises an unnamed ``ValueError``."""
    if "\0" in str(path):
        raise CliError(f"{what} {str(path)!r}: embedded null byte")


def _check_out_dir(out: Path) -> None:
    """Reject an output directory that could not be created; creates nothing."""
    _reject_nul(out, "cannot create output directory")
    existing = out.absolute()
    try:
        # a dangling link exists, though exists() follows it: mkdir would fail on it
        while not (existing.exists() or existing.is_symlink()):
            existing = existing.parent
    except OSError as exc:
        raise CliError(f"cannot create output directory {out}: {exc}") from exc
    if not existing.is_dir():
        raise CliError(f"cannot create output directory {out}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise CliError(f"cannot create output directory {out}: {existing} is not writable")


def _read_file(what: str, path: str, read):
    """``read(path)``, with a file that cannot be read or parsed a usage error naming it."""
    _reject_nul(path, f"cannot read {what}")
    try:
        return read(path)
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc
    except ParamsFileError as exc:
        raise CliError(f"bad {what} {path}: {exc}") from exc


def _write_run(out: Path, target, grid, params) -> None:
    """Write ``<target id>_run.csv`` in ``out``: the target and the circuit over the grid."""
    write_run_csv(out / f"{target.id}_run.csv", grid, target.fn(grid), circuit_expectation_grid(params, grid))


def cmd_fit(args) -> int:
    target = _make_target(args)
    # checked before training but created only after it, so that a usage
    # error leaves no directory behind
    _check_out_dir(args.out_dir)
    grid = make_grid(args.n, args.x0)
    cfg = OptimizerConfig(iterations=args.iterations, restarts=args.restarts, seed=args.seed)
    result = optimize(target, grid, cfg)

    out = args.out_dir
    stem = target.id
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_params_file(out / f"{stem}.params", result.best)
        _write_run(out, target, grid, result.best)
        write_trace_csv(out / f"{stem}_trace.csv", result.j_trace)
        write_summary(out / f"{stem}_summary.txt", result.j_final, result.max_error, result.evals, args.seed)
        write_comparison_plot(out / f"{stem}.svg", target, result.best, args.x0)
    except OSError as exc:
        raise CliError(f"cannot write outputs to {out}: {exc}") from exc

    print(f"target={stem} J={result.j_final!r} max_error={result.max_error!r} "
          f"evals={result.evals} seed={args.seed}")
    print(f"wrote {out / (stem + '.params')}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params = _read_file("parameter file", args.params_file, read_params_file)
    target = _make_target(args)
    _check_out_dir(args.out_dir)
    grid = make_grid(args.n, args.x0)
    j = performance_index(params, target, grid)
    eps = max_pointwise_error(params, target, grid)
    if not (math.isfinite(j) and math.isfinite(eps)):
        raise CliError(f"performance index is not finite (J={j!r}, max_error={eps!r})")

    out = args.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_run(out, target, grid, params)
    except OSError as exc:
        raise CliError(f"cannot write outputs to {out}: {exc}") from exc
    print(f"J={j!r}")
    print(f"max_error={eps!r}")
    return EXIT_OK


def cmd_coeffs(args) -> int:
    params = _read_file("parameter file", args.params_file, read_params_file)
    a = cubic_coefficients(params).as_array()
    lines = [f"{name}={float(value)!r}" for name, value in zip(("a0", "a1", "a2", "a3"), a)]
    if not np.isfinite(a).all():
        raise CliError(f"cubic coefficients are not finite ({', '.join(lines)})")
    print("\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    ok = True
    for res in run_suites(args.trials, args.seed):
        if res.passed:
            print(f"{res.name}: PASS ({res.trials} trials)")
        else:
            ok = False
            print(f"{res.name}: FAIL ({res.failures}/{res.trials} failed; {res.detail})")
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_reproduce(args) -> int:
    _check_out_dir(args.out_dir)
    try:
        report = run_reproduction(args.out_dir, seed=args.seed, iterations=args.iterations,
                                  restarts=args.restarts)
    except ChildProcessError as exc:  # a retraining process could not start or died
        raise CliError(str(exc)) from exc
    except OSError as exc:
        raise CliError(f"cannot write outputs to {args.out_dir}: {exc}") from exc
    print(report.table_path.read_text(encoding="utf-8"))
    print(f"retraining wall time: {report.retrain_seconds:.1f} s")
    if report.all_passed:
        print("all reproduction checks passed")
        return EXIT_OK
    print("reproduction checks FAILED", file=sys.stderr)
    return EXIT_FAILURE


def _add_options(sub, handler, names=(), **defaults):
    """Add the flags of the named options, and --config if there are any;
    ``defaults`` overrides the table's default for this subcommand, in its help too."""
    options = {name: defaults.get(name, OPTIONS[name][1]) for name in names}
    for name, default in options.items():
        cast, _, text = OPTIONS[name]
        sub.add_argument("--" + name.replace("_", "-"), dest=name, type=cast, help=text.format(default))
    if names:
        sub.add_argument("--config", help=f"key=value config file (default: ./{CONFIG_NAME} if present)")
    sub.set_defaults(handler=handler, options=options)


def _add_target(sub):
    sub.add_argument("--target", required=True, choices=TARGET_IDS,
                     help="target function to approximate")
    sub.add_argument("--poly", help="comma-separated polynomial coefficients, ascending; required for --target custom")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qubitfit",
        description="Train and analyze a two-qubit product circuit as a least-squares function approximator.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("fit", help="train the circuit against a target function")
    _add_target(p)
    _add_options(p, cmd_fit, ("n", "x0", "iterations", "restarts", "seed", "out_dir"))

    p = commands.add_parser("eval", help="evaluate a parameter file against a target")
    p.add_argument("params_file", help="parameter file to evaluate")
    _add_target(p)
    _add_options(p, cmd_eval, ("n", "x0", "out_dir"))

    p = commands.add_parser("coeffs", help="print the cubic coefficients for a parameter file")
    p.add_argument("params_file", help="parameter file to analyze")
    _add_options(p, cmd_coeffs)

    p = commands.add_parser("verify", help="run randomized simulator/closed-form self-checks")
    _add_options(p, cmd_verify, ("trials", "seed"))

    p = commands.add_parser("reproduce", help="re-run the three bundled experiments and tabulate results")
    _add_options(p, cmd_reproduce, ("iterations", "restarts", "seed", "out_dir"), out_dir=Path("reproduction"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_options(args)
        with np.errstate(over="ignore", invalid="ignore"):
            code = args.handler(args)
        sys.stdout.flush()  # a reader that left is found here, not at the interpreter's exit
        return code
    except BrokenPipeError:
        # the reader left: no traceback, and the interpreter's final flush goes to /dev/null
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a size option (--trials, --n) asked for more than this machine
        # holds: a usage error, not a failed verification
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
