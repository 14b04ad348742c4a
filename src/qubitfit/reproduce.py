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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

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


def run_reproduction(
    out_dir: str | Path,
    seed: int = OptimizerConfig.seed,
    iterations: int = DEFAULT_ITERATIONS,
    restarts: int = DEFAULT_RESTARTS,
) -> ReproductionReport:
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

    fits: dict[str, FitResult] = {}
    t0 = time.perf_counter()
    for target_id in EXPERIMENT_TARGETS:
        fits[target_id] = optimize(get_target(target_id), grid, cfg)
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
