import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitfit.verify as verify_mod
from qubitfit.verify import SUITE_NAMES, run_suites

from conftest import scale_amplitudes
from oracles import uniform_draw


def per_draw_failures(trials, seed, check):
    """(failures, detail) of a loop over the draws one at a time.

    ``check(v, x)`` returns why draw (v, x) fails, or None; draw i is
    made from seed + i by the uniform-call oracle.
    """
    failures = []
    for i in range(trials):
        v, x = uniform_draw(np.random.default_rng(seed + i))
        why = check(v, x)
        if why is not None:
            failures.append((seed + i, why))
    first_seed, first_why = failures[0]
    return len(failures), f"first failure at draw seed {first_seed}: {first_why}"


def assert_draws_match_oracle(trials, seed):
    rows, xs = verify_mod._draws(trials, seed)
    assert rows.shape == (trials, 6) and xs.shape == (trials,)
    for i in range(trials):
        v, x = uniform_draw(np.random.default_rng(seed + i))
        assert rows[i].tobytes() == v.tobytes()
        assert xs[i].tobytes() == np.float64(x).tobytes()


@given(st.integers(0, 2**64), st.sampled_from([1, 2]))
@settings(max_examples=50)
def test_block_draws_equal_uniform_calls(seed, trials):
    assert_draws_match_oracle(trials, seed)


@pytest.mark.parametrize("seed", [0, 1, 2**40])
def test_block_draws_equal_uniform_calls_over_a_full_run(seed):
    assert_draws_match_oracle(2000, seed)


def test_all_suites_pass_on_correct_build():
    results = run_suites(200, seed=1)
    assert tuple(r.name for r in results) == SUITE_NAMES
    for r in results:
        assert r.passed, (r.name, r.detail)
        assert r.trials == 200
        assert r.failures == 0
        assert r.detail == "ok"


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        run_suites(0, seed=1)
    with pytest.raises(ValueError):
        run_suites(-5, seed=1)


def test_single_trial_runs():
    results = run_suites(1, seed=3)
    assert all(r.trials == 1 for r in results)


def test_skewed_simulator_is_caught_and_reported(monkeypatch):
    # a constant offset well above tolerance must trip the equivalence
    # suite and name a reproducible draw seed
    real = verify_mod.circuit_expectation
    monkeypatch.setattr(
        verify_mod, "circuit_expectation", lambda params, x: real(params, x) + 1e-6
    )
    results = {r.name: r for r in run_suites(50, seed=10)}
    eq = results["equivalence"]
    assert not eq.passed
    assert eq.failures == 50
    assert "draw seed 10" in eq.detail
    # normalization and remainder do not consult the skewed function
    assert results["normalization"].passed
    assert results["remainder"].passed


def test_skewed_closed_form_is_caught(monkeypatch):
    real = verify_mod.closed_form_expectation
    monkeypatch.setattr(
        verify_mod, "closed_form_expectation", lambda params, x: real(params, x) * 1.001
    )
    results = {r.name: r for r in run_suites(50, seed=5)}
    assert not results["equivalence"].passed
    assert results["normalization"].passed


def test_nan_closed_form_fails_equivalence(monkeypatch):
    monkeypatch.setattr(
        verify_mod, "closed_form_expectation", lambda params, x: np.full(np.shape(x), math.nan)
    )
    results = {r.name: r for r in run_suites(50, seed=5)}
    eq = results["equivalence"]
    assert not eq.passed
    assert eq.failures == 50
    assert eq.detail == "first failure at draw seed 5: |sim - closed| = nan"
    assert all(results[name].passed for name in ("normalization", "boundedness", "remainder"))


def test_failure_seed_is_reproducible(monkeypatch):
    real = verify_mod.circuit_expectation
    monkeypatch.setattr(
        verify_mod, "circuit_expectation", lambda params, x: real(params, x) + 1e-6
    )
    first = {r.name: r.detail for r in run_suites(20, seed=77)}
    second = {r.name: r.detail for r in run_suites(20, seed=77)}
    assert first == second


@pytest.mark.parametrize("factor, error", [
    (1.001, "4.006e-03"),  # each amplitude pair scaled by 1.001: |psi|^2 = 1.001^4
    (math.nan, "nan"),
])
def test_unnormalized_states_fail_the_normalization_suite(monkeypatch, factor, error):
    scale_amplitudes(monkeypatch, factor)
    results = {r.name: r for r in run_suites(40, seed=4)}
    norm = results["normalization"]
    assert not norm.passed
    assert norm.failures == 40
    assert norm.detail == f"first failure at draw seed 4: | |psi|^2 - 1 | = {error}"
    # the output kernel does not build states
    assert all(results[name].passed for name in ("equivalence", "boundedness", "remainder"))


def _suite(name, trials, seed):
    return {r.name: r for r in run_suites(trials, seed)}[name]


def test_first_failure_of_a_partly_skewed_simulator(monkeypatch):
    real = verify_mod.circuit_expectation
    skew = lambda v, x: real(v, x) + np.where(np.asarray(x) > 0, 1e-6, 0.0)
    monkeypatch.setattr(verify_mod, "circuit_expectation", skew)

    def check(v, x):
        diff = abs(skew(v, x) - verify_mod.closed_form_expectation(v, x))
        return f"|sim - closed| = {diff:.3e}" if diff > verify_mod.EQUIV_TOL else None

    failures, detail = per_draw_failures(60, 20, check)
    assert 0 < failures < 60 and not detail.startswith("first failure at draw seed 20:")
    eq = _suite("equivalence", 60, 20)
    assert (eq.failures, eq.detail) == (failures, detail)


def test_first_failure_of_a_partly_skewed_closed_form(monkeypatch):
    real = verify_mod.closed_form_expectation
    skew = lambda v, x: real(v, x) * np.where(np.asarray(x) < 0, 1.001, 1.0)
    monkeypatch.setattr(verify_mod, "closed_form_expectation", skew)

    def check(v, x):
        diff = abs(verify_mod.circuit_expectation(v, x) - skew(v, x))
        return f"|sim - closed| = {diff:.3e}" if diff > verify_mod.EQUIV_TOL else None

    failures, detail = per_draw_failures(60, 6, check)
    assert 0 < failures < 60 and not detail.startswith("first failure at draw seed 6:")
    eq = _suite("equivalence", 60, 6)
    assert (eq.failures, eq.detail) == (failures, detail)


def test_first_failure_of_a_partly_skewed_remainder(monkeypatch):
    # the larger step's remainder grows 100x on draws with theta1 > 0
    real = verify_mod.cubic_remainder
    skew = lambda v, x: real(v, x) * (np.where(v[..., 0] > 0, 100.0, 1.0) if x == 2e-2 else 1.0)
    monkeypatch.setattr(verify_mod, "cubic_remainder", skew)

    def check(v, _x):
        r1, r2 = skew(v, 1e-2), skew(v, 2e-2)
        if min(r1, r2) < verify_mod.REMAINDER_FLOOR:
            return None
        ratio = r2 / r1
        ok = verify_mod.RATIO_LO <= ratio <= verify_mod.RATIO_HI
        return None if ok else f"remainder ratio {ratio:.3f} outside [4, 64]"

    failures, detail = per_draw_failures(60, 8, check)
    assert 0 < failures < 60 and not detail.startswith("first failure at draw seed 8:")
    rem = _suite("remainder", 60, 8)
    assert (rem.failures, rem.detail) == (failures, detail)
