"""Randomized self-checks of the simulator/closed-form pair.

Four suites over seeded random draws of (params, x):

* equivalence   - simulator output vs closed form, 1e-12
* normalization - unit norm of the state
* boundedness   - output inside [min(g), max(g)] with 1e-12 slack
* remainder     - cubic truncation error shrinks ~x^4 under step halving

Draw i uses seed ``seed + i`` so any failure is reproducible in isolation.
All draws are made first: each draw seed fills one row of seven uniform
doubles, and :func:`~qubitfit.chemotaxis.map_uniform` maps the whole
``(T, 7)`` block in one pass to raw parameter rows ``(T, 6)`` and inputs
``(T,)``, by the same law training draws its starting points from. Each
suite then runs once over the whole batch and reports its failure count
and the first failing draw in draw order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import closed_form_expectation, cubic_remainder
from .chemotaxis import N_DIM, map_uniform
from .circuit import circuit_expectation, prepare_state

EQUIV_TOL = 1e-12
NORM_TOL = 1e-12
BOUND_SLACK = 1e-12
RATIO_LO, RATIO_HI = 4.0, 64.0
# Below this, the quartic Taylor coefficient is effectively zero for the
# draw and the step-halving ratio measures higher-order noise, not the
# O(x^4) law; such draws are skipped. Calibrated on 30k draws: degenerate
# draws sit below 2e-11, typical draws near 1e-9.
REMAINDER_FLOOR = 1e-10
SUITE_NAMES = ("equivalence", "normalization", "boundedness", "remainder")


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    trials: int
    failures: int
    detail: str


def _draws(trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw parameter rows ``(trials, 6)`` and inputs ``(trials,)``; draw i from seed + i."""
    u = np.empty((trials, N_DIM + 1))
    for i in range(trials):
        np.random.default_rng(seed + i).random(out=u[i])
    map_uniform(u)
    return u[:, :N_DIM], u[:, N_DIM]


def _collect(name: str, seed: int, failed: np.ndarray, why) -> SuiteResult:
    """Result of one suite from its per-draw failure mask; ``why(i)`` explains draw i."""
    trials = len(failed)
    (index,) = np.nonzero(failed)
    if index.size == 0:
        return SuiteResult(name, True, trials, 0, "ok")
    i = int(index[0])
    return SuiteResult(
        name, False, trials, index.size, f"first failure at draw seed {seed + i}: {why(i)}"
    )


def run_suites(trials: int, seed: int) -> list[SuiteResult]:
    """Run all four suites on the same ``trials`` draws."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
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

    lo, hi = rows[:, 2:].min(axis=1), rows[:, 2:].max(axis=1)
    results.append(_collect(
        "boundedness", seed, ~((lo - BOUND_SLACK <= sim) & (sim <= hi + BOUND_SLACK)),
        lambda i: f"value {float(sim[i])!r} outside [{float(lo[i])!r}, {float(hi[i])!r}]",
    ))

    r1 = cubic_remainder(rows, 1e-2)
    r2 = cubic_remainder(rows, 2e-2)
    # a draw with either remainder below the floor has no measurable
    # fourth-order signal and is skipped; no division happens for it
    measured = ~(np.minimum(r1, r2) < REMAINDER_FLOOR)
    ratio = np.divide(r2, r1, out=np.zeros(trials), where=measured)
    results.append(_collect(
        "remainder", seed, measured & ~((RATIO_LO <= ratio) & (ratio <= RATIO_HI)),
        lambda i: f"remainder ratio {ratio[i]:.3f} outside [4, 64]",
    ))

    return results
