"""Target functions, sampling grid, and the least-squares performance index."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuit import CircuitParams, Workspace, _count, _grid_points, _param_rows, circuit_expectation_grid


@dataclass(frozen=True)
class TargetFunction:
    """A named real function of a real variable; ``fn`` must be vectorized."""

    id: str
    fn: Callable[[np.ndarray], np.ndarray]


_BUILTIN: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "quadratic": np.square,
    "gaussian": lambda x: np.exp(-np.square(x)),
    "sigmoid": np.tanh,
}
TARGET_IDS = (*_BUILTIN, "custom")


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


def make_grid(n: int, x0: float) -> np.ndarray:
    """The read-only float64 array of n uniformly spaced points from -x0 to +x0
    inclusive; ``n`` must be an integer of at least 2 and ``x0`` a real number, taken as a float."""
    n = _count("n", n, 2)
    # as a float, since linspace builds points of x0's type; a huge int is not finite
    try:
        half = float(x0) if isinstance(x0, numbers.Real) else math.nan
    except OverflowError:
        half = math.inf
    if not (math.isfinite(half) and half > 0):
        raise ValueError(f"grid half-width must be positive and finite, got x0={x0!r}")
    # linspace steps by the span 2*x0 / (n - 1) and scales its steps back
    # up; past about 8.99e307 that overflows and the points come out NaN
    with np.errstate(over="ignore", invalid="ignore"):
        points = np.linspace(-half, half, n)
    if not np.isfinite(points).all():
        raise ValueError(f"grid span 2*x0 must not overflow, got x0={x0}")
    points.setflags(write=False)
    return points


def performance_index(
    params: CircuitParams | np.ndarray,
    target: TargetFunction,
    grid: np.ndarray,
    workspace: Workspace | None = None,
) -> float:
    """Sum of squared residuals between target and circuit output over the grid.

    ``params`` may be the raw vector ``[theta1, theta2, g0..g3]``, which is
    not validated: a non-finite entry gives a non-finite index.
    ``workspace``, a one-row :class:`~qubitfit.circuit.Workspace`
    ``((), grid, values)`` for the target's ``values``, comes
    from a caller that evaluates the index many times on ``grid``, as the
    optimizer does: one check that ``params`` is a ``(6,)`` ``ndarray``
    and ``grid`` the workspace's own ``xs`` array, then one call of its
    ``index``. The target values are then the workspace's and ``target``
    is not read: a workspace built for another target gives that target's
    index. Without it, the call takes ``grid`` as a float64 array of
    shape ``(N,)`` and builds its own.
    """
    if workspace is None:
        grid = _grid_points(grid)
        params, workspace = _param_rows(params), Workspace((), grid, target.fn(grid))
    if type(params) is np.ndarray and params.shape == (6,) and grid is workspace.xs:
        return float(workspace.index(params))
    raise ValueError("the index takes one raw row, an ndarray of shape (6,), at its workspace's grid points")


def max_pointwise_error(params: CircuitParams, target: TargetFunction, grid: np.ndarray) -> float:
    """Worst absolute residual over the grid; its square never exceeds the index."""
    grid = _grid_points(grid)
    r = target.fn(grid) - circuit_expectation_grid(params, grid)
    return float(np.max(np.abs(r)))
