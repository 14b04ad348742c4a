"""Greedy Gaussian random-walk (chemotaxis-style) minimizer of the index.

One iteration costs exactly one objective evaluation: propose a step,
keep it only if the index strictly improves. Steps have scale 0.3
(``SIGMA0``), an accepted step is replayed until it stops paying off (the
"run"), and after 50 rejections in a row (``FAIL_STREAK``) the scale is
multiplied by 0.7 (``SIGMA_SHRINK``). Each restart starts at a random
draw of its own seeded generator, so results are reproducible bit for bit.

A fit builds one kernel :class:`~qubitfit.circuit.Workspace` for one row,
batch shape ``()``, that holds the target values, shared by its restarts,
which run one after another: each evaluation is one ``performance_index``
call, which checks the candidate and runs it through the workspace's
``index``, overwriting every buffer it reads. Fresh proposals come from a
block of normals, and the candidates for the rest of a block come from one
add, made again after an accepted step or a shrink of the step scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, Workspace, _count, _grid_points
from .objective import TargetFunction, max_pointwise_error, performance_index

N_DIM = 6
# rows of standard normals drawn at once for the proposals of one restart
NORMAL_BLOCK = 256
# The draw law, column by column: theta1, theta2 uniform on (-pi, pi),
# g0..g3 on (-2, 2), and a seventh column, the input x of a verify draw,
# on (-pi, pi). numpy's uniform(low, high) is low + (high - low) * u for
# u = Generator.random(), so mapping a block of random() doubles gives the
# doubles of the equivalent uniform() calls.
DRAW_LOW = np.array([-math.pi, -math.pi, -2.0, -2.0, -2.0, -2.0, -math.pi])
DRAW_SPAN = -2.0 * DRAW_LOW
# the step-size law of the module docstring
SIGMA0 = 0.3
SIGMA_SHRINK = 0.7
FAIL_STREAK = 50


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget and seed, each an integer (``int`` or ``np.integer``) stored
    as an ``int``, so ``seed + r`` cannot wrap; the defaults are the paper's,
    which ``reproduce`` and the CLI read from here.

    Restart r runs on seed ``seed + r``; its starting point is the first
    :func:`random_vector` draw of ``np.random.default_rng(seed + r)``.
    """

    iterations: int = 5000
    restarts: int = 10
    seed: int = 42

    def __post_init__(self) -> None:
        for name, least in (("iterations", 0), ("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), least))


@dataclass(frozen=True)
class FitResult:
    """Outcome of one optimize() call (best restart after merging)."""

    best: CircuitParams
    j_final: float
    j_trace: tuple[tuple[int, float], ...]
    max_error: float
    evals: int


def map_uniform(u: np.ndarray) -> np.ndarray:
    """Map ``random()`` doubles in place to the draw law of their columns; returns ``u``."""
    k = u.shape[-1]
    u *= DRAW_SPAN[:k]
    u += DRAW_LOW[:k]
    return u


def random_vector(rng: np.random.Generator) -> np.ndarray:
    """Draw [theta1, theta2, g0..g3]: angles uniform on (-pi, pi), diagonal on (-2, 2)."""
    return map_uniform(rng.random(N_DIM))


def _run_restart(
    target: TargetFunction,
    grid: np.ndarray,
    workspace: Workspace,
    cfg: OptimizerConfig,
    restart_seed: int,
) -> tuple[np.ndarray, float, list[tuple[int, float]]]:
    rng = np.random.default_rng(restart_seed)
    point = random_vector(rng)
    # the index takes the raw vector: a candidate with a non-finite entry
    # gets a non-finite index and is rejected below, so only the returned
    # best point is validated (in optimize)
    current = performance_index(point, target, grid, workspace)
    if not math.isfinite(current):
        raise ValueError("performance index is not finite at the starting point")

    trace = [(0, current)]
    sigma, shrink, streak = SIGMA0, SIGMA_SHRINK, FAIL_STREAK
    fails = 0
    run_direction: np.ndarray | None = None
    # Proposals take rows of a block of standard normals z, scaled as
    # 0.0 + sigma * z: the doubles of one rng.normal(0.0, sigma, N_DIM) call
    # per proposal, since numpy's normal is loc + scale * standard_normal()
    # and the generator serves nothing else from here on. The scaled block
    # is remade only when a new block is drawn or sigma shrinks. The
    # candidates of the block's remaining rows k.. come from one add,
    # point + steps[k:], whose rows equal point + steps[k] bit for bit and
    # end with the block, so row k is cands[k - NORMAL_BLOCK]; the add is
    # remade when the point or the steps change.
    z = steps = cands = None
    k = NORMAL_BLOCK
    for it in range(1, cfg.iterations + 1):
        if run_direction is not None:
            candidate = point + run_direction
        else:
            if k == NORMAL_BLOCK:
                z, k = rng.standard_normal((NORMAL_BLOCK, N_DIM)), 0
                steps = cands = None
            if cands is None:
                if steps is None:
                    steps = sigma * z + 0.0
                cands = point + steps[k:]
            candidate = cands[k - NORMAL_BLOCK]
            k += 1
        value = performance_index(candidate, target, grid, workspace)
        # current is finite and the index >= 0, NaN or +inf: no non-finite value passes
        if value < current:
            point, current = candidate, value
            if run_direction is None:
                run_direction = steps[k - 1]
            fails = 0
            trace.append((it, current))
            cands = None
        else:
            run_direction = None
            fails += 1
            if fails >= streak:
                sigma *= shrink
                fails = 0
                steps = cands = None
    return point, current, trace


def optimize(target: TargetFunction, grid: np.ndarray, cfg: OptimizerConfig) -> FitResult:
    """Minimize the index over the points ``grid`` (as float64); returns the best restart's outcome.

    Restarts run one after another, restart r on seed ``cfg.seed + r``;
    the merge picks the lowest final index with ties broken by lowest
    restart number.
    """
    # one evaluation of the target serves every evaluation of the index; a
    # target that is not finite there, or whose squares overflow, gives every
    # start a non-finite index, so it is rejected by name before any restart
    grid = _grid_points(grid)
    values = target.fn(grid)
    with np.errstate(over="ignore"):
        if not math.isfinite(np.dot(values, values)):
            raise ValueError(
                f"target {target.id!r} overflows the performance index on the grid with x0={grid[-1]}"
            )
    workspace = Workspace((), grid, values)
    runs = [_run_restart(target, grid, workspace, cfg, cfg.seed + r) for r in range(cfg.restarts)]

    point, j_final, trace = min(runs, key=lambda run: run[1])  # ties: lowest restart
    best = CircuitParams.from_vector(point)
    return FitResult(
        best=best,
        j_final=j_final,
        j_trace=tuple(trace),
        max_error=max_pointwise_error(best, target, grid),
        # one evaluation at the start of each restart and one per iteration
        evals=cfg.restarts * (cfg.iterations + 1),
    )
