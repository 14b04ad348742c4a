"""Command line interface.

Subcommands: fit, eval, coeffs, verify, reproduce. Exit codes: 0 success,
1 verification or acceptance failure, 2 usage or parse error.

Option resolution order: explicit flag, then key of the same name in the
config file (``--config`` or ``./qubitfit.conf``), then the QUBITFIT_SEED
environment variable (seed only), then the built-in default.
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
DEFAULT_SEED = 42
# every key _resolve reads; anything else in a config file is a typo
CONFIG_KEYS = frozenset({"n", "x0", "iterations", "restarts", "seed", "out_dir", "trials"})

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Invocation-level problem; reported once and mapped to exit code 2."""


def _load_config(args) -> dict[str, str]:
    path = getattr(args, "config", None)
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
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise CliError(f"unknown key(s) in config file {path}: {', '.join(unknown)}")
    return config


def _resolve(args, config, key, cast, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        try:
            return cast(config[key])
        except ValueError as exc:
            raise CliError(f"config key {key!r}: {exc}") from exc
    if key == "seed" and os.environ.get(SEED_ENV):
        raw = os.environ[SEED_ENV]
        try:
            return int(raw)
        except ValueError:
            raise CliError(f"{SEED_ENV} must be an integer, got {raw!r}") from None
    return default


def _parse_poly(text: str) -> list[float]:
    # an empty token is an error, not skipped: skipping it would shift every
    # later coefficient down one degree
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise CliError(f"bad polynomial coefficients: {text!r}") from None


def _make_target(args):
    poly = getattr(args, "poly", None)
    try:
        return get_target(args.target, _parse_poly(poly) if poly is not None else None)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _out_path(args, config) -> Path:
    return Path(_resolve(args, config, "out_dir", str, "."))


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
    config = _load_config(args)
    target = _make_target(args)
    n = _resolve(args, config, "n", int, DEFAULT_N)
    x0 = _resolve(args, config, "x0", float, DEFAULT_X0)
    iterations = _resolve(args, config, "iterations", int, DEFAULT_ITERATIONS)
    restarts = _resolve(args, config, "restarts", int, DEFAULT_RESTARTS)
    seed = _resolve(args, config, "seed", int, DEFAULT_SEED)
    # checked before training but created only after it, so that a usage
    # error leaves no directory behind
    out = _out_path(args, config)
    _check_out_dir(out)
    try:
        grid = make_grid(n, x0)
        cfg = OptimizerConfig(iterations=iterations, restarts=restarts, seed=seed)
        # a non-finite index is reported as an error, so numpy's overflow warnings are noise
        with np.errstate(over="ignore", invalid="ignore"):
            result = optimize(target, grid, cfg)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    _make_out_dir(out)
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
        write_summary(out / f"{stem}_summary.txt", result.j_final, result.max_error, result.evals, seed)
        write_comparison_plot(out / f"{stem}.svg", target, result.best, x0)
    except OSError as exc:
        raise CliError(f"cannot write outputs to {out}: {exc}") from exc

    print(f"target={stem} J={result.j_final!r} max_error={result.max_error!r} "
          f"evals={result.evals} seed={seed}")
    print(f"wrote {out / (stem + '.params')}")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_config(args)
    params = _load_params(args.params_file)
    target = _make_target(args)
    n = _resolve(args, config, "n", int, DEFAULT_N)
    x0 = _resolve(args, config, "x0", float, DEFAULT_X0)
    try:
        grid = make_grid(n, x0)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    # a non-finite result is reported as an error, so numpy's overflow warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        j = performance_index(params, target, grid)
        eps = max_pointwise_error(params, target, grid)
    if not (math.isfinite(j) and math.isfinite(eps)):
        raise CliError(f"performance index is not finite (J={j!r}, max_error={eps!r})")

    out = _make_out_dir(_out_path(args, config))
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
    poly = cubic_coefficients(params)
    for name, value in zip(("a0", "a1", "a2", "a3"), poly.as_array()):
        print(f"{name}={float(value)!r}")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _load_config(args)
    trials = _resolve(args, config, "trials", int, 1000)
    seed = _resolve(args, config, "seed", int, DEFAULT_SEED)
    try:
        results = run_suites(trials, seed)
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
    config = _load_config(args)
    seed = _resolve(args, config, "seed", int, DEFAULT_SEED)
    iterations = _resolve(args, config, "iterations", int, DEFAULT_ITERATIONS)
    restarts = _resolve(args, config, "restarts", int, DEFAULT_RESTARTS)
    out = Path(_resolve(args, config, "out_dir", str, "reproduction"))
    try:
        report = run_reproduction(out, seed=seed, iterations=iterations, restarts=restarts)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    except OSError as exc:
        raise CliError(f"cannot write outputs to {out}: {exc}") from exc
    print(report.table_path.read_text(encoding="utf-8"))
    print(f"retraining wall time: {report.retrain_seconds:.1f} s")
    if report.all_passed:
        print("all reproduction checks passed")
        return EXIT_OK
    print("reproduction checks FAILED", file=sys.stderr)
    return EXIT_FAILURE


def _add_common(sub, config=True, out_dir=False, seed=False):
    if config:
        sub.add_argument("--config", help=f"key=value config file (default: ./{CONFIG_NAME} if present)")
    if out_dir:
        sub.add_argument("--out-dir", dest="out_dir", help="output directory")
    if seed:
        sub.add_argument("--seed", type=int, help=f"master RNG seed (default ${SEED_ENV} or {DEFAULT_SEED})")


def _add_target(sub):
    sub.add_argument("--target", required=True, choices=TARGET_IDS,
                     help="target function to approximate")
    sub.add_argument("--poly", help="comma-separated polynomial coefficients, ascending; required for --target custom")
    sub.add_argument("--n", type=int, help=f"number of grid samples (default {DEFAULT_N})")
    sub.add_argument("--x0", type=float, help=f"half-width of the sample interval (default {DEFAULT_X0:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitfit",
        description="Train and analyze a two-qubit product circuit as a least-squares function approximator.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("fit", help="train the circuit against a target function")
    _add_target(p)
    p.add_argument("--iterations", type=int, help=f"optimizer iterations per restart (default {DEFAULT_ITERATIONS})")
    p.add_argument("--restarts", type=int, help=f"independent restarts (default {DEFAULT_RESTARTS})")
    _add_common(p, out_dir=True, seed=True)
    p.set_defaults(handler=cmd_fit)

    p = commands.add_parser("eval", help="evaluate a parameter file against a target")
    p.add_argument("params_file", help="parameter file to evaluate")
    _add_target(p)
    _add_common(p, out_dir=True)
    p.set_defaults(handler=cmd_eval)

    p = commands.add_parser("coeffs", help="print the cubic coefficients for a parameter file")
    p.add_argument("params_file", help="parameter file to analyze")
    p.set_defaults(handler=cmd_coeffs)

    p = commands.add_parser("verify", help="run randomized simulator/closed-form self-checks")
    p.add_argument("--trials", type=int, help="number of random draws (default 1000)")
    _add_common(p, seed=True)
    p.set_defaults(handler=cmd_verify)

    p = commands.add_parser("reproduce", help="re-run the three bundled experiments and tabulate results")
    p.add_argument("--iterations", type=int, help=f"optimizer iterations per restart (default {DEFAULT_ITERATIONS})")
    p.add_argument("--restarts", type=int, help=f"independent restarts (default {DEFAULT_RESTARTS})")
    _add_common(p, out_dir=True, seed=True)
    p.set_defaults(handler=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
