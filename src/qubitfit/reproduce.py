"""End-to-end reproduction of the three bundled fitting experiments.

Two passes per target (quadratic, gaussian, sigmoid):

* published  - evaluate the bundled reference parameter set on the
  standard grid and compare its index against the recorded reference
  value, with a threshold padded for the 3-decimal precision the
  reference parameters are stored at;
* retrained  - train from scratch at the standard budget (N = 30,
  x0 = 1.5, 5000 iterations, 10 restarts) and require the achieved index
  not to exceed a fixed threshold.

Writes a markdown table, two comparison plots per target (published and
retrained parameters), and the retrained parameter sets.

The three retrainings share nothing, so on a host with two or more usable
CPUs this process trains the first target and a forked child each other
one; the results are the same bits as one after another in this process
(see :func:`run_reproduction`).
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, NoReturn

import numpy as np

from .chemotaxis import FitResult, OptimizerConfig, optimize
from .circuit import CircuitParams, circuit_expectation_grid
from .fileio import _write_text, parse_params, write_line_plot, write_params_file
from .objective import TargetFunction, get_target, make_grid, max_pointwise_error, performance_index

EXPERIMENT_TARGETS = ("quadratic", "gaussian", "sigmoid")

# index values the bundled parameter sets were reported to reach
REFERENCE_INDEX = {"quadratic": 0.03, "gaussian": 0.005, "sigmoid": 0.006}

# acceptance thresholds; published ones absorb grid choice + parameter rounding
PUBLISHED_THRESHOLD = {"quadratic": 0.1, "gaussian": 0.02, "sigmoid": 0.02}
RETRAINED_THRESHOLD = {"quadratic": 0.05, "gaussian": 0.02, "sigmoid": 0.02}

DEFAULT_N = 30
DEFAULT_X0 = 1.5
DEFAULT_ITERATIONS = OptimizerConfig.iterations
DEFAULT_RESTARTS = OptimizerConfig.restarts
PLOT_POINTS = 200


def published_params(target_id: str) -> CircuitParams:
    """Load the bundled reference parameter set for a builtin target."""
    if target_id not in EXPERIMENT_TARGETS:
        raise ValueError(f"no bundled parameters for target {target_id!r}")
    path = Path(__file__).parent / "data" / "paper" / f"{target_id}.params"
    return parse_params(path.read_text(encoding="utf-8"))


def write_comparison_plot(
    path: str | Path,
    target: TargetFunction,
    params: CircuitParams,
    x0: float = DEFAULT_X0,
    label: str = "approximation",
) -> None:
    """SVG of the target against the circuit at ``params`` on a dense grid over [-x0, x0]."""
    dense = np.linspace(-x0, x0, PLOT_POINTS)
    write_line_plot(
        path,
        dense,
        [
            (f"target {target.id}", target.fn(dense), "#cc0000"),
            (label, circuit_expectation_grid(params, dense), "#000000"),
        ],
        title=f"{target.id}: target vs circuit approximation",
    )


@dataclass(frozen=True)
class ReportRow:
    kind: str  # "published" | "retrained"
    target_id: str
    j: float
    max_error: float
    reference_j: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.j <= self.threshold


@dataclass(frozen=True)
class ReproductionReport:
    rows: tuple[ReportRow, ...]
    fits: dict[str, FitResult]
    retrain_seconds: float
    table_path: Path

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _markdown_table(rows: tuple[ReportRow, ...]) -> str:
    lines = [
        "| setting | target | J | max error | reference J | threshold | status |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        lines.append(
            f"| {row.kind} | {row.target_id} | {row.j:.6f} | {row.max_error:.6f} "
            f"| {row.reference_j:g} | {row.threshold:g} | {status} |"
        )
    return "\n".join(lines) + "\n"


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _child(
    target_id: str, grid: np.ndarray, cfg: OptimizerConfig, read_fd: int, write_fd: int
) -> NoReturn:
    """In a forked child: fit ``target_id``, pickle the FitResult or the exception to ``write_fd``, exit.

    ``os._exit`` ends the child without unwinding into the caller's code and
    without flushing the stdio buffers it shares with the parent.
    """
    status = 1
    try:
        os.close(read_fd)  # a parent that dies then breaks the pipe instead of leaving it blocked
        try:
            outcome = optimize(get_target(target_id), grid, cfg)
        except BaseException as exc:  # the parent raises it
            outcome = exc
        with open(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _fork_fit(target_id: str, grid: np.ndarray, cfg: OptimizerConfig) -> tuple[int, BinaryIO]:
    """Fork a child that fits ``target_id``; returns its pid and the read end of its pipe.

    A pipe or fork that fails (no file descriptor, process or memory left)
    raises ``ChildProcessError`` naming the target.
    """
    try:
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns that a fork in a multi-threaded process may
                # deadlock the child: numpy leaves OpenBLAS's idle pool running.
                # The child runs only optimize's small-vector numpy calls, which
                # stay on its one thread, and OpenBLAS's atfork handler resets
                # the pool, so the child never waits on another thread's lock.
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
                pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
    except OSError as exc:
        raise ChildProcessError(f"retraining {target_id}: cannot start its process: {exc}") from exc
    if pid == 0:
        _child(target_id, grid, cfg, read_fd, write_fd)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _outcome(target_id: str, data: bytes, status: int) -> FitResult:
    """A reaped child's FitResult; raises the exception it sent, or says how it ended."""
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        outcome = pickle.loads(data)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome
    how = f"was ended by signal {-code}" if code < 0 else f"exited with status {code}"
    raise ChildProcessError(f"retraining {target_id}: its process {how}")


def _retrain(grid: np.ndarray, cfg: OptimizerConfig) -> dict[str, FitResult]:
    """One ``optimize`` job per target, keyed in EXPERIMENT_TARGETS order (see run_reproduction)."""
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        return {t: optimize(get_target(t), grid, cfg) for t in EXPERIMENT_TARGETS}
    first, *rest = EXPERIMENT_TARGETS
    children: list[tuple[str, int, BinaryIO]] = []  # the ones not yet reaped
    try:
        for target_id in rest:
            children.append((target_id, *_fork_fit(target_id, grid, cfg)))
        fits = {first: optimize(get_target(first), grid, cfg)}
        while children:
            target_id, pid, pipe = children[0]
            with pipe:
                data = pipe.read()  # to EOF: the child has sent its outcome, or died
            status = os.waitpid(pid, 0)[1]
            del children[0]
            fits[target_id] = _outcome(target_id, data, status)
    finally:
        for _, pid, pipe in children:  # on failure only: no child outlives the call
            from signal import SIGKILL  # here, so that importing the package does not load it

            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    return fits


def run_reproduction(
    out_dir: str | Path,
    seed: int = OptimizerConfig.seed,
    iterations: int = DEFAULT_ITERATIONS,
    restarts: int = DEFAULT_RESTARTS,
) -> ReproductionReport:
    """Evaluate the bundled parameter sets, retrain the three targets, and write the outputs to ``out_dir``.

    Retraining is one ``optimize`` job per target. Where ``os.fork`` exists
    and ``os.sched_getaffinity`` reports at least two usable CPUs, this
    process runs the first target and a forked child runs each other one,
    sending its ``FitResult`` back through a pipe; elsewhere (no ``fork``,
    no ``sched_getaffinity``, or one CPU) the jobs run here, one after
    another. Either way the fits, and every file written, are the same
    bits for any CPU count. A child's exception is raised here as itself,
    and a child that cannot start or dies raises ``ChildProcessError``
    naming its target; no child outlives the call. ``retrain_seconds`` is the wall time of
    the retraining across all processes. The published pass, the plots,
    the parameter files and ``report.md`` are made in this process.
    """
    cfg = OptimizerConfig(iterations=iterations, restarts=restarts, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = make_grid(DEFAULT_N, DEFAULT_X0)

    rows: list[ReportRow] = []
    for target_id in EXPERIMENT_TARGETS:
        target = get_target(target_id)
        params = published_params(target_id)
        rows.append(
            ReportRow(
                kind="published",
                target_id=target_id,
                j=performance_index(params, target, grid),
                max_error=max_pointwise_error(params, target, grid),
                reference_j=REFERENCE_INDEX[target_id],
                threshold=PUBLISHED_THRESHOLD[target_id],
            )
        )
        write_comparison_plot(out / f"{target_id}_published.svg", target, params,
                              label="published parameters")

    t0 = time.perf_counter()
    fits = _retrain(grid, cfg)
    retrain_seconds = time.perf_counter() - t0

    for target_id in EXPERIMENT_TARGETS:
        fit = fits[target_id]
        rows.append(
            ReportRow(
                kind="retrained",
                target_id=target_id,
                j=fit.j_final,
                max_error=fit.max_error,
                reference_j=REFERENCE_INDEX[target_id],
                threshold=RETRAINED_THRESHOLD[target_id],
            )
        )
        write_params_file(out / f"{target_id}.params", fit.best)
        write_comparison_plot(out / f"{target_id}.svg", get_target(target_id), fit.best)

    table_path = out / "report.md"
    header = (
        "# Reproduction report\n\n"
        f"Grid: N = {DEFAULT_N} uniform points on [-{DEFAULT_X0:g}, {DEFAULT_X0:g}]. "
        f"Training: {iterations} iterations, {restarts} restarts, master seed {seed}.\n\n"
    )
    _write_text(table_path, header + _markdown_table(tuple(rows)))

    return ReproductionReport(
        rows=tuple(rows),
        fits=fits,
        retrain_seconds=retrain_seconds,
        table_path=table_path,
    )
