"""Acceptance gate: the seven headline checks, one printed line each.

Each test prints a `[criterion N] PASS/FAIL` line straight to the real
stdout (bypassing capture) so a plain pytest run shows the scorecard.
Criteria 4, 5 and parts of 6-7 share one full-scale reproduction run via
the session fixture in conftest.py.
"""

import math
import time

import numpy as np
import pytest

from qubitfit import (
    CircuitParams,
    OptimizerConfig,
    TargetFunction,
    circuit_expectation,
    circuit_expectation_grid,
    closed_form_expectation,
    cubic_coefficients,
    cubic_remainder,
    format_params,
    get_target,
    make_grid,
    optimize,
    parse_params,
    prepare_state,
)
from qubitfit.cli import main as cli_main

from conftest import random_params
from oracles import fd_maclaurin

EQUIV_TOL = 1e-12
NORM_TOL = 1e-12
BOUND_SLACK = 1e-12
RATIO_LO, RATIO_HI = 4.0, 64.0
FD_TOL = 1e-6
RETRAINED_LIMITS = {"quadratic": 0.05, "gaussian": 0.02, "sigmoid": 0.02}
PUBLISHED_LIMITS = {"quadratic": 0.1, "gaussian": 0.02, "sigmoid": 0.02}


@pytest.fixture
def announce(capfd):
    def _announce(text: str) -> None:
        with capfd.disabled():
            print(text, flush=True)

    return _announce


def seeded_draws(n: int, base: int):
    out = []
    for i in range(n):
        rng = np.random.default_rng(base + i)
        theta1, theta2 = rng.uniform(-math.pi, math.pi, 2)
        g = rng.uniform(-2.0, 2.0, 4)
        x = float(rng.uniform(-math.pi, math.pi))
        out.append((CircuitParams(float(theta1), float(theta2), g), x))
    return out


def test_criterion_1_oracle_equivalence(announce):
    start = time.perf_counter()
    worst = 0.0
    for params, x in seeded_draws(1000, 271828):
        worst = max(worst, abs(circuit_expectation(params, x) - closed_form_expectation(params, x)))
    elapsed = time.perf_counter() - start
    ok = worst <= EQUIV_TOL and elapsed < 1.0
    announce(
        f"[criterion 1] {'PASS' if ok else 'FAIL'}  simulator vs closed form: "
        f"max deviation {worst:.3e} (tol 1e-12) over 1000 draws in {elapsed:.2f} s"
    )
    assert ok


def test_criterion_2_normalization_and_boundedness(announce):
    worst_norm = 0.0
    worst_excess = -math.inf
    for params, x in seeded_draws(1000, 271828):
        state = prepare_state(params, x)
        worst_norm = max(worst_norm, abs(state.norm_sq() - 1.0))
        value = circuit_expectation(params, x)
        lo, hi = float(np.min(params.g)), float(np.max(params.g))
        worst_excess = max(worst_excess, lo - value, value - hi)
    ok = worst_norm <= NORM_TOL and worst_excess <= BOUND_SLACK
    announce(
        f"[criterion 2] {'PASS' if ok else 'FAIL'}  norm and range: "
        f"max | |psi|^2 - 1 | = {worst_norm:.3e} (tol 1e-12), "
        f"max range excess {worst_excess:.3e} (slack 1e-12) over the same draws"
    )
    assert ok


def test_criterion_3_cubic_truncation_theorem(announce):
    start = time.perf_counter()
    measurable, ratio_ok, fd_ok = 0, True, True
    for params, _x in seeded_draws(100, 1234):
        r1, r2 = cubic_remainder(params, 1e-2), cubic_remainder(params, 2e-2)
        if min(r1, r2) >= 1e-10:  # quartic term large enough to measure
            measurable += 1
            ratio_ok = ratio_ok and RATIO_LO <= r2 / r1 <= RATIO_HI
        coeffs = cubic_coefficients(params).as_array()
        fd = fd_maclaurin(lambda xx: closed_form_expectation(params, xx), degree=3, h=1e-3)
        fd_ok = fd_ok and bool(np.all(np.abs(coeffs - fd) <= FD_TOL * np.maximum(1.0, np.abs(coeffs))))
    elapsed = time.perf_counter() - start
    ok = ratio_ok and fd_ok and measurable >= 80 and elapsed < 1.0
    announce(
        f"[criterion 3] {'PASS' if ok else 'FAIL'}  cubic truncation: "
        f"remainder ratio in [4, 64] on {measurable}/100 measurable draws, "
        f"coefficients match finite differences within 1e-6 rel, {elapsed:.2f} s"
    )
    assert ok


def test_criterion_4_published_parameters(announce, reproduction_report):
    rows = {r.target_id: r for r in reproduction_report.rows if r.kind == "published"}
    ok = all(rows[t].j <= PUBLISHED_LIMITS[t] for t in PUBLISHED_LIMITS)
    detail = ", ".join(f"{t} J={rows[t].j:.4f} (<= {PUBLISHED_LIMITS[t]:g})" for t in rows)
    announce(f"[criterion 4] {'PASS' if ok else 'FAIL'}  published parameter sets: {detail}")
    assert ok


def test_criterion_5_retraining_at_reference_scale(announce, reproduction_report):
    rows = {r.target_id: r for r in reproduction_report.rows if r.kind == "retrained"}
    within = all(rows[t].j <= RETRAINED_LIMITS[t] for t in RETRAINED_LIMITS)
    fast = reproduction_report.retrain_seconds < 60.0
    ok = within and fast
    detail = ", ".join(f"{t} J={rows[t].j:.5f} (<= {RETRAINED_LIMITS[t]:g})" for t in rows)
    announce(
        f"[criterion 5] {'PASS' if ok else 'FAIL'}  retraining (5000 iters, 10 restarts, "
        f"seed 42): {detail}; {reproduction_report.retrain_seconds:.1f} s (< 60 s)"
    )
    assert ok


def test_criterion_6_optimizer_contracts(announce, reproduction_report):
    # (a) best-J traces never increase, on full-scale runs
    traces_ok = True
    for fit in reproduction_report.fits.values():
        values = [j for _, j in fit.j_trace]
        traces_ok = traces_ok and all(b <= a for a, b in zip(values, values[1:]))
        traces_ok = traces_ok and fit.j_final == values[-1]

    # (b) identical seeds are bit-identical
    grid = make_grid(30, 1.5)
    cfg = OptimizerConfig(iterations=400, restarts=3, seed=13)
    runs = [
        optimize(get_target("gaussian"), grid, cfg),
        optimize(get_target("gaussian"), grid, cfg),
    ]
    identical = all(
        r.best.as_vector().tobytes() == runs[0].best.as_vector().tobytes()
        and r.j_final == runs[0].j_final
        and r.j_trace == runs[0].j_trace
        for r in runs[1:]
    )

    # (c) a self-fit target (optimum J = 0 by construction) is recovered
    pstar = CircuitParams(0.4, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    target = TargetFunction("selffit", lambda x: circuit_expectation_grid(pstar, x))
    init = CircuitParams.from_vector(pstar.as_vector() + 0.2)
    self_fit = optimize(target, grid, OptimizerConfig(iterations=4000, restarts=1, init=init, seed=7))
    recovered = self_fit.j_final <= 1e-3

    ok = traces_ok and identical and recovered
    announce(
        f"[criterion 6] {'PASS' if ok else 'FAIL'}  optimizer contracts: "
        f"traces non-increasing {traces_ok}, seed-determinism {identical}, "
        f"self-fit J={self_fit.j_final:.2e} (<= 1e-3)"
    )
    assert ok


def test_criterion_7_io_contracts(announce, tmp_path, monkeypatch):
    monkeypatch.delenv("QUBITFIT_SEED", raising=False)

    rng = np.random.default_rng(31337)
    round_trips = all(
        parse_params(format_params(p)) == p
        for p in (random_params(rng) for _ in range(1000))
    )

    out = tmp_path / "reproduction"
    rc = cli_main(["reproduce", "--out-dir", str(out)])
    table = (out / "report.md").read_text(encoding="utf-8")
    data_rows = [
        line for line in table.splitlines()
        if line.startswith("|") and "---" not in line and "setting" not in line
    ]
    table_ok = len(data_rows) == 6 and rc == 0

    ok = round_trips and table_ok
    announce(
        f"[criterion 7] {'PASS' if ok else 'FAIL'}  I/O contracts: "
        f"1000/1000 parameter files round-trip exactly {round_trips}, "
        f"reproduce exit code {rc} with {len(data_rows)} table rows"
    )
    assert ok
