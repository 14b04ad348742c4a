"""Randomized self-checks of the simulator/closed-form pair.

Four suites over seeded random draws of (params, x):

* equivalence   - simulator output vs closed form, 1e-12
* normalization - unit norm and vanishing imaginary parts of the state
* boundedness   - output inside [min(g), max(g)] with 1e-12 slack
* remainder     - cubic truncation error shrinks ~x^4 under step halving

Draw i uses seed ``seed + i`` so any failure is reproducible in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import closed_form_expectation, cubic_remainder
from .chemotaxis import random_vector
from .circuit import CircuitParams, circuit_expectation, prepare_state

EQUIV_TOL = 1e-12
NORM_TOL = 1e-12
IMAG_TOL = 1e-15
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


def _draws(trials: int, seed: int) -> list[tuple[int, CircuitParams, float]]:
    out = []
    for i in range(trials):
        draw_seed = seed + i
        rng = np.random.default_rng(draw_seed)
        params = CircuitParams.from_vector(random_vector(rng))
        x = float(rng.uniform(-math.pi, math.pi))
        out.append((draw_seed, params, x))
    return out


def _collect(name: str, trials: int, failures: list[tuple[int, str]]) -> SuiteResult:
    if not failures:
        return SuiteResult(name, True, trials, 0, "ok")
    seed, why = failures[0]
    return SuiteResult(
        name, False, trials, len(failures), f"first failure at draw seed {seed}: {why}"
    )


def run_suites(trials: int, seed: int) -> list[SuiteResult]:
    """Run all four suites on the same ``trials`` draws."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    draws = _draws(trials, seed)
    results = []

    # one simulator evaluation per draw serves both the equivalence and the
    # boundedness suite
    equivalence, boundedness = [], []
    for draw_seed, params, x in draws:
        sim = circuit_expectation(params, x)
        closed = closed_form_expectation(params, x)
        if abs(sim - closed) > EQUIV_TOL:
            equivalence.append((draw_seed, f"|sim - closed| = {abs(sim - closed):.3e}"))
        lo, hi = float(params.g.min()), float(params.g.max())
        if not (lo - BOUND_SLACK <= sim <= hi + BOUND_SLACK):
            boundedness.append((draw_seed, f"value {sim!r} outside [{lo!r}, {hi!r}]"))
    results.append(_collect("equivalence", trials, equivalence))

    failures = []
    for draw_seed, params, x in draws:
        state = prepare_state(params, x)
        norm_err = abs(state.norm_sq() - 1.0)
        imag_max = float(np.max(np.abs(state.amp.imag)))
        if norm_err > NORM_TOL:
            failures.append((draw_seed, f"| |psi|^2 - 1 | = {norm_err:.3e}"))
        elif imag_max > IMAG_TOL:
            failures.append((draw_seed, f"max imaginary part = {imag_max:.3e}"))
    results.append(_collect("normalization", trials, failures))

    results.append(_collect("boundedness", trials, boundedness))

    failures = []
    for draw_seed, params, _x in draws:
        r1 = cubic_remainder(params, 1e-2)
        r2 = cubic_remainder(params, 2e-2)
        if min(r1, r2) < REMAINDER_FLOOR:
            continue  # no measurable fourth-order signal for this draw
        ratio = r2 / r1
        if not (RATIO_LO <= ratio <= RATIO_HI):
            failures.append((draw_seed, f"remainder ratio {ratio:.3f} outside [4, 64]"))
    results.append(_collect("remainder", trials, failures))

    return results
