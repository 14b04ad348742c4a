"""Greedy Gaussian random-walk (chemotaxis-style) minimizer of the index.

One iteration costs exactly one objective evaluation: propose a step,
keep it only if the index strictly improves. A successful step direction
is replayed until it stops paying off (the "run"); a streak of rejected
proposals shrinks the step scale. Everything is driven by a single seeded
generator per restart, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams
from .objective import SampleGrid, TargetFunction, max_pointwise_error, performance_index

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


@dataclass(frozen=True)
class OptimizerConfig:
    """Search knobs. ``init=None`` draws a fresh random start per restart.

    Restart r runs on seed ``seed + r``; with ``init=None`` its starting
    point is the first :func:`random_vector` draw of
    ``np.random.default_rng(seed + r)``.
    """

    iterations: int = 5000
    restarts: int = 10
    sigma0: float = 0.3
    sigma_shrink: float = 0.7
    fail_streak: int = 50
    init: CircuitParams | None = None
    seed: int = 42

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not (math.isfinite(self.sigma0) and self.sigma0 > 0):
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if not (0.0 < self.sigma_shrink < 1.0):
            raise ValueError(f"sigma_shrink must lie in (0, 1), got {self.sigma_shrink}")
        if self.fail_streak < 1:
            raise ValueError(f"fail_streak must be >= 1, got {self.fail_streak}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


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
    grid: SampleGrid,
    target_values: np.ndarray,
    cfg: OptimizerConfig,
    restart_seed: int,
) -> tuple[np.ndarray, float, list[tuple[int, float]], int]:
    rng = np.random.default_rng(restart_seed)
    point = cfg.init.as_vector() if cfg.init is not None else random_vector(rng)
    # the index takes the raw vector: a candidate with a non-finite entry
    # gets a non-finite index and is rejected below, so only the returned
    # best point is validated (in optimize)
    current = performance_index(point, target, grid, target_values)
    evals = 1
    if not math.isfinite(current):
        raise ValueError("performance index is not finite at the starting point")

    trace = [(0, current)]
    sigma = cfg.sigma0
    fails = 0
    run_direction: np.ndarray | None = None
    # Proposals take rows of a block of standard normals z, scaled as
    # 0.0 + sigma * z: the doubles of one rng.normal(0.0, sigma, N_DIM) call
    # per proposal, since numpy's normal is loc + scale * standard_normal()
    # and the generator serves nothing else from here on. The scaled block
    # is remade only when a new block is drawn or sigma shrinks.
    z = steps = None
    k = NORMAL_BLOCK
    for it in range(1, cfg.iterations + 1):
        if run_direction is not None:
            step = run_direction
        else:
            if k == NORMAL_BLOCK:
                z, steps, k = rng.standard_normal((NORMAL_BLOCK, N_DIM)), None, 0
            if steps is None:
                steps = sigma * z + 0.0
            step = steps[k]
            k += 1
        candidate = point + step
        value = performance_index(candidate, target, grid, target_values)
        evals += 1
        if math.isfinite(value) and value < current:
            point, current = candidate, value
            run_direction = step
            fails = 0
            trace.append((it, current))
        else:
            # a non-finite candidate counts as an ordinary rejection
            run_direction = None
            fails += 1
            if fails >= cfg.fail_streak:
                sigma *= cfg.sigma_shrink
                fails = 0
                steps = None
    return point, current, trace, evals


def optimize(target: TargetFunction, grid: SampleGrid, cfg: OptimizerConfig) -> FitResult:
    """Minimize the performance index; returns the best restart's outcome.

    Restarts run one after another, restart r on seed ``cfg.seed + r``;
    the merge picks the lowest final index with ties broken by lowest
    restart number.
    """
    # one evaluation of the target serves every evaluation of the index
    values = target.fn(grid.points)
    runs = [_run_restart(target, grid, values, cfg, cfg.seed + r) for r in range(cfg.restarts)]

    winner = min(range(len(runs)), key=lambda i: (runs[i][1], i))
    point, j_final, trace, _ = runs[winner]
    best = CircuitParams.from_vector(point)
    return FitResult(
        best=best,
        j_final=j_final,
        j_trace=tuple(trace),
        max_error=max_pointwise_error(best, target, grid),
        evals=sum(r[3] for r in runs),
    )
