"""Randomized self-checks of the simulator/closed-form pair.

Four suites over seeded random draws of (params, x):

* equivalence   - simulator output vs closed form, 1e-12
* normalization - unit norm of the state
* boundedness   - output inside [min(g), max(g)] with 1e-12 slack
* remainder     - cubic truncation error at x = 1e-3 within its Lagrange
                  bound (5/24) x^4 sum|g|, plus 64 eps sum|g| of rounding

All draws come from one generator, ``np.random.default_rng(seed)``: its
``(T, 7)`` block of uniform doubles is mapped by
:func:`~qubitfit.chemotaxis.map_uniform` to raw parameter rows ``(T, 6)``
and inputs ``(T,)``, by the same law training draws its starting points
from. Draw i is row i, so a failure at draw i of a seed replays alone as
``map_uniform(np.random.default_rng(seed).random((i + 1, 7))[i])``, and
distinct seeds draw distinct points. Each suite runs once over the whole
batch and reports its failure count and the first failing draw in draw
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .analytic import closed_form_expectation, cubic_remainder
from .chemotaxis import N_DIM, map_uniform
from .circuit import _count, circuit_expectation, prepare_state

EQUIV_TOL = 1e-12
NORM_TOL = 1e-12
BOUND_SLACK = 1e-12
REMAINDER_STEP = 1e-3
SUITE_NAMES = ("equivalence", "normalization", "boundedness", "remainder")


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    trials: int
    failures: int
    detail: str


def _draws(trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw parameter rows ``(trials, 6)`` and inputs ``(trials,)``.

    Draw i is row i of ``np.random.default_rng(seed).random((trials, 7))``,
    mapped by :func:`~qubitfit.chemotaxis.map_uniform`.
    """
    u = map_uniform(np.random.default_rng(seed).random((trials, N_DIM + 1)))
    return u[:, :N_DIM], u[:, N_DIM]


def _collect(name: str, seed: int, failed: np.ndarray, why) -> SuiteResult:
    """Result of one suite from its per-draw failure mask; ``why(i)`` explains draw i."""
    trials = len(failed)
    (index,) = np.nonzero(failed)
    if index.size == 0:
        return SuiteResult(name, True, trials, 0, "ok")
    i = int(index[0])
    return SuiteResult(
        name, False, trials, index.size, f"first failure at draw {i} of seed {seed}: {why(i)}"
    )


def run_suites(trials: int, seed: int) -> list[SuiteResult]:
    """Run all four suites on the same ``trials`` draws.

    ``trials`` (at least 1) and ``seed`` (at least 0) must be integers
    (``int`` or ``np.integer``); anything else, a float included, raises
    ``ValueError``.
    """
    trials, seed = _count("trials", trials, 1), _count("seed", seed, 0)
    rows, xs = _draws(trials, seed)
    results = []

    # one simulator evaluation serves both the equivalence and the
    # boundedness suite
    sim = circuit_expectation(rows, xs)
    diff = np.abs(sim - closed_form_expectation(rows, xs))
    # written so that a NaN difference fails
    results.append(_collect(
        "equivalence", seed, ~(diff <= EQUIV_TOL), lambda i: f"|sim - closed| = {diff[i]:.3e}"
    ))

    # norms from the real amplitude rows, so an unnormalized state is a
    # failure of this suite; a NaN norm fails too
    amp = prepare_state(rows, xs)
    norm_err = np.abs((amp * amp).sum(axis=1) - 1.0)
    results.append(_collect(
        "normalization", seed, ~(norm_err <= NORM_TOL),
        lambda i: f"| |psi|^2 - 1 | = {norm_err[i]:.3e}",
    ))

    # column by column: a min or max along the length-4 axis costs 15x more
    lo, hi = reduce(np.minimum, rows.T[2:]), reduce(np.maximum, rows.T[2:])
    results.append(_collect(
        "boundedness", seed, ~((lo - BOUND_SLACK <= sim) & (sim <= hi + BOUND_SLACK)),
        lambda i: f"value {float(sim[i])!r} outside [{float(lo[i])!r}, {float(hi[i])!r}]",
    ))

    # Lagrange's bound from the draw's own g (see cubic_remainder), plus 64 eps sum|g|
    # for the rounding of f and P3, whose terms sum to at most 13/8 sum|g|; NaN fails
    rem = cubic_remainder(rows, REMAINDER_STEP)
    bound = (5 / 24 * REMAINDER_STEP**4 + 64 * np.finfo(float).eps) * reduce(np.add, np.abs(rows.T[2:]))
    results.append(_collect(
        "remainder", seed, ~(rem <= bound),
        lambda i: f"remainder {float(rem[i])!r} above its bound {float(bound[i])!r}",
    ))

    return results
