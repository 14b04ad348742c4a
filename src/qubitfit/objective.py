"""Target functions, sampling grid, and the least-squares performance index."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuit import CircuitParams, Workspace, circuit_expectation_grid

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
    if c.size == 0:
        raise ValueError("polynomial target needs at least one coefficient")
    if not np.isfinite(c).all():
        raise ValueError("polynomial target coefficients must all be finite")
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
    # linspace steps by the span 2*x0 / (n - 1) and scales its steps back
    # up; past about 8.99e307 that overflows and the points come out NaN
    with np.errstate(over="ignore", invalid="ignore"):
        points = np.linspace(-x0, x0, n)
    if not np.isfinite(points).all():
        raise ValueError(f"grid span 2*x0 must not overflow, got x0={x0}")
    points.setflags(write=False)
    return SampleGrid(points=points, n=int(n), x0=float(x0))


@dataclass(frozen=True)
class PreparedIndex:
    """What many evaluations of the index on one grid share.

    ``values`` are ``target.fn(grid.points)``, only read; ``workspace``
    is a :class:`~qubitfit.circuit.Workspace` for one raw row at
    ``grid.points``, whose buffers every evaluation reuses.
    """

    values: np.ndarray
    workspace: Workspace

    @classmethod
    def of(cls, values: np.ndarray, grid: SampleGrid) -> "PreparedIndex":
        return cls(values, Workspace((6,), grid.points))


def performance_index(
    params: CircuitParams | np.ndarray,
    target: TargetFunction,
    grid: SampleGrid,
    prepared: PreparedIndex | None = None,
) -> float:
    """Sum of squared residuals between target and circuit output over the grid.

    ``params`` may be the raw vector ``[theta1, theta2, g0..g3]``, which is
    not validated: a non-finite entry gives a non-finite index.
    ``prepared`` comes from a caller that evaluates the index many times
    on ``grid``, as the optimizer does: its target values stand in for
    ``target.fn(grid.points)`` and the kernel runs on its workspace, so
    the evaluation allocates no buffer; ``params`` must then be a ``(6,)``
    ``ndarray``.
    """
    if prepared is None:
        values, r = target.fn(grid.points), circuit_expectation_grid(params, grid.points)
    else:
        values, r = prepared.values, circuit_expectation_grid(params, grid.points, prepared.workspace)
    # the kernel's output is its own array (fresh, or the workspace's), so
    # the residual can overwrite it; r.dot is np.dot without its dispatch
    np.subtract(values, r, r)
    return float(r.dot(r))


def max_pointwise_error(params: CircuitParams, target: TargetFunction, grid: SampleGrid) -> float:
    """Worst absolute residual over the grid; its square never exceeds the index."""
    r = target.fn(grid.points) - circuit_expectation_grid(params, grid.points)
    return float(np.max(np.abs(r)))
