"""Target functions, sampling grid, and the least-squares performance index."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuit import CircuitParams, circuit_expectation_grid

TARGET_IDS = ("quadratic", "gaussian", "sigmoid", "custom")


@dataclass(frozen=True)
class TargetFunction:
    """A named real function of a real variable; ``fn`` must be vectorized."""

    id: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        out = self.fn(np.asarray(x, dtype=float))
        return float(out) if np.ndim(out) == 0 else out


_BUILTIN: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "quadratic": np.square,
    "gaussian": lambda x: np.exp(-np.square(x)),
    "sigmoid": np.tanh,
}


def polynomial_target(coeffs: Sequence[float]) -> TargetFunction:
    """Custom target sum_k coeffs[k] * x^k (ascending powers)."""
    c = np.asarray(list(coeffs), dtype=float)
    if c.size == 0 or not np.all(np.isfinite(c)):
        raise ValueError("polynomial target needs at least one finite coefficient")
    return TargetFunction("custom", lambda x: np.polynomial.polynomial.polyval(x, c))


def get_target(target_id: str, poly: Sequence[float] | None = None) -> TargetFunction:
    """Look up a builtin target by id, or build a custom polynomial one."""
    if target_id == "custom":
        if poly is None:
            raise ValueError("target 'custom' requires polynomial coefficients")
        return polynomial_target(poly)
    if target_id in _BUILTIN:
        return TargetFunction(target_id, _BUILTIN[target_id])
    raise ValueError(f"unknown target {target_id!r}; expected one of {TARGET_IDS}")


@dataclass(frozen=True)
class SampleGrid:
    """Uniform, endpoint-inclusive sample points on [-x0, x0]."""

    points: np.ndarray
    n: int
    x0: float


def make_grid(n: int, x0: float) -> SampleGrid:
    """n uniformly spaced points from -x0 to +x0 inclusive."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got n={n}")
    if not (math.isfinite(x0) and x0 > 0):
        raise ValueError(f"grid half-width must be positive and finite, got x0={x0}")
    points = np.linspace(-x0, x0, n)
    points.setflags(write=False)
    return SampleGrid(points=points, n=int(n), x0=float(x0))


def performance_index(
    params: CircuitParams | np.ndarray,
    target: TargetFunction,
    grid: SampleGrid,
    target_values: np.ndarray | None = None,
) -> float:
    """Sum of squared residuals between target and circuit output over the grid.

    ``params`` may be the raw vector ``[theta1, theta2, g0..g3]``, which is
    not validated: a non-finite entry gives a non-finite index.
    ``target_values`` are ``target.fn(grid.points)`` when the caller has
    them already, as a loop over many evaluations does; they are only read.
    """
    if target_values is None:
        target_values = target.fn(grid.points)
    # the kernel's output is a fresh array, so the residual can overwrite it
    r = circuit_expectation_grid(params, grid.points)
    np.subtract(target_values, r, out=r)
    return float(np.dot(r, r))


def max_pointwise_error(params: CircuitParams, target: TargetFunction, grid: SampleGrid) -> float:
    """Worst absolute residual over the grid; its square never exceeds the index."""
    r = target.fn(grid.points) - circuit_expectation_grid(params, grid.points)
    return float(np.max(np.abs(r)))
