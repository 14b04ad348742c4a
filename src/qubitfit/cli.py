"""Command line interface.

Subcommands: fit, eval, coeffs, verify, reproduce. Exit codes: 0 success,
1 verification or acceptance failure, 2 usage or parse error (one line on stderr).

Options are declared once, in ``OPTIONS``, and each resolves once, before the
subcommand runs: explicit flag, then the key of the same name in the config
file (``--config`` or ``./qubitfit.conf``; its values are cast when it is
read), then the QUBITFIT_SEED environment variable (seed only), then the default.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .analytic import cubic_coefficients
from .chemotaxis import OptimizerConfig, optimize
from .circuit import circuit_expectation_grid
from .fileio import (
    ParamsFileError,
    read_config,
    read_params_file,
    write_params_file,
    write_run_csv,
    write_summary,
    write_trace_csv,
)
from .objective import TARGET_IDS, get_target, make_grid, max_pointwise_error, performance_index
from .reproduce import (
    DEFAULT_ITERATIONS,
    DEFAULT_N,
    DEFAULT_RESTARTS,
    DEFAULT_X0,
    run_reproduction,
    write_comparison_plot,
)
from .svgplot import write_line_plot  # noqa: F401  (traced by perfbench/spans.py)
from .verify import run_suites

CONFIG_NAME = "qubitfit.conf"
SEED_ENV = "QUBITFIT_SEED"

# name -> (type, default, help): every option a flag or a config key sets;
# any other config key is a typo. The help is formatted with the default.
OPTIONS = {
    "n": (int, DEFAULT_N, "number of grid samples (default {})"),
    "x0": (float, DEFAULT_X0, "half-width of the sample interval (default {})"),
    "iterations": (int, DEFAULT_ITERATIONS, "optimizer iterations per restart (default {})"),
    "restarts": (int, DEFAULT_RESTARTS, "independent restarts (default {})"),
    "seed": (int, 42, f"master RNG seed (default ${SEED_ENV} or {{}})"),
    "trials": (int, 1000, "number of random draws (default {})"),
    "out_dir": (Path, Path("."), "output directory"),
}

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Invocation-level problem; reported once and mapped to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line on one line, like every other usage error."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


def _load_config(path: str | None) -> dict:
    """The config file's values, each cast by its option's type."""
    if path is None:
        if not Path(CONFIG_NAME).is_file():
            return {}
        path = CONFIG_NAME
    elif not Path(path).is_file():
        raise CliError(f"config file not found: {path}")
    try:
        config = read_config(path)
    except ParamsFileError as exc:
        raise CliError(f"bad config file {path}: {exc}") from exc
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
    try:
        return get_target(args.target, None if args.poly is None else _parse_poly(args.poly))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _check_out_dir(out: Path) -> None:
    """Reject an output directory that could not be created; creates nothing."""
    existing = out.absolute()
    try:
        while not existing.exists():
            existing = existing.parent
    except OSError as exc:
        raise CliError(f"cannot create output directory {out}: {exc}") from exc
    if not existing.is_dir():
        raise CliError(f"cannot create output directory {out}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise CliError(f"cannot create output directory {out}: {existing} is not writable")


def _make_out_dir(out: Path) -> Path:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _load_params(path: str):
    try:
        return read_params_file(path)
    except OSError as exc:
        raise CliError(f"cannot read parameter file {path}: {exc}") from exc
    except ParamsFileError as exc:
        raise CliError(f"bad parameter file {path}: {exc}") from exc


def cmd_fit(args) -> int:
    target = _make_target(args)
    # checked before training but created only after it, so that a usage
    # error leaves no directory behind
    _check_out_dir(args.out_dir)
    try:
        grid = make_grid(args.n, args.x0)
        cfg = OptimizerConfig(iterations=args.iterations, restarts=args.restarts, seed=args.seed)
        # a non-finite index is reported as an error, so numpy's overflow warnings are noise
        with np.errstate(over="ignore", invalid="ignore"):
            result = optimize(target, grid, cfg)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    out = _make_out_dir(args.out_dir)
    stem = target.id
    try:
        write_params_file(out / f"{stem}.params", result.best)
        write_run_csv(
            out / f"{stem}_run.csv",
            grid.points,
            target(grid.points),
            circuit_expectation_grid(result.best, grid.points),
        )
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
    params = _load_params(args.params_file)
    target = _make_target(args)
    try:
        grid = make_grid(args.n, args.x0)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    # a non-finite result is reported as an error, so numpy's overflow warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        j = performance_index(params, target, grid)
        eps = max_pointwise_error(params, target, grid)
    if not (math.isfinite(j) and math.isfinite(eps)):
        raise CliError(f"performance index is not finite (J={j!r}, max_error={eps!r})")

    out = _make_out_dir(args.out_dir)
    try:
        write_run_csv(
            out / f"{target.id}_run.csv",
            grid.points,
            target(grid.points),
            circuit_expectation_grid(params, grid.points),
        )
    except OSError as exc:
        raise CliError(f"cannot write outputs to {out}: {exc}") from exc
    print(f"J={j!r}")
    print(f"max_error={eps!r}")
    return EXIT_OK


def cmd_coeffs(args) -> int:
    params = _load_params(args.params_file)
    # non-finite coefficients are reported as an error, so numpy's overflow warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        a = cubic_coefficients(params).as_array()
    lines = [f"{name}={float(value)!r}" for name, value in zip(("a0", "a1", "a2", "a3"), a)]
    if not np.isfinite(a).all():
        raise CliError(f"cubic coefficients are not finite ({', '.join(lines)})")
    print("\n".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        results = run_suites(args.trials, args.seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    ok = True
    for res in results:
        if res.passed:
            print(f"{res.name}: PASS ({res.trials} trials)")
        else:
            ok = False
            print(f"{res.name}: FAIL ({res.failures}/{res.trials} failed; {res.detail})")
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_reproduce(args) -> int:
    try:
        report = run_reproduction(args.out_dir, seed=args.seed, iterations=args.iterations,
                                  restarts=args.restarts)
    except ValueError as exc:
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
    ``defaults`` overrides the table's default for this subcommand."""
    for name in names:
        cast, default, text = OPTIONS[name]
        sub.add_argument("--" + name.replace("_", "-"), dest=name, type=cast, help=text.format(default))
    if names:
        sub.add_argument("--config", help=f"key=value config file (default: ./{CONFIG_NAME} if present)")
    sub.set_defaults(handler=handler, options={name: defaults.get(name, OPTIONS[name][1]) for name in names})


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
        return args.handler(args)
    except CliError as exc:
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
