import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitfit.analytic as analytic
import qubitfit.verify as verify_mod
from qubitfit.chemotaxis import map_uniform
from qubitfit.verify import SUITE_NAMES, run_suites

from conftest import scale_amplitudes
from oracles import uniform_draw


def per_draw_failures(trials, seed, check):
    """(failures, detail) of a loop over the draws one at a time.

    ``check(v, x)`` returns why draw (v, x) fails, or None; the draws
    are made in turn from one ``default_rng(seed)`` by the uniform-call
    oracle.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(trials):
        v, x = uniform_draw(rng)
        why = check(v, x)
        if why is not None:
            failures.append((i, why))
    first, first_why = failures[0]
    return len(failures), f"first failure at draw {first} of seed {seed}: {first_why}"


def replay(seed, i):
    """(v, x) of draw i of a seed, rebuilt alone as the module docstring says."""
    u = map_uniform(np.random.default_rng(seed).random((i + 1, 7))[i])
    return u[:6], u[6]


def assert_draws_match_oracle(trials, seed):
    rows, xs = verify_mod._draws(trials, seed)
    assert rows.shape == (trials, 6) and xs.shape == (trials,)
    rng = np.random.default_rng(seed)
    for i in range(trials):
        v, x = uniform_draw(rng)
        assert rows[i].tobytes() == v.tobytes()
        assert xs[i].tobytes() == np.float64(x).tobytes()
    # the last draw replays alone, and a longer run keeps these draws as its prefix
    v, x = replay(seed, trials - 1)
    assert (rows[-1].tobytes(), xs[-1].tobytes()) == (v.tobytes(), x.tobytes())
    longer_rows, longer_xs = verify_mod._draws(trials + 3, seed)
    assert longer_rows[:trials].tobytes() == rows.tobytes()
    assert longer_xs[:trials].tobytes() == xs.tobytes()


@given(st.integers(0, 2**64), st.sampled_from([1, 2]))
@settings(max_examples=50)
def test_block_draws_equal_uniform_calls(seed, trials):
    assert_draws_match_oracle(trials, seed)


@pytest.mark.parametrize("seed", [0, 1, 2**40])
def test_block_draws_equal_uniform_calls_over_a_full_run(seed):
    assert_draws_match_oracle(2000, seed)


# seeds just below a 32-bit word boundary, whose neighbours are one entropy
# word longer, and seeds past 2**128: every seed size draws like default_rng
@pytest.mark.parametrize("seed", [0, 2**32 - 3, 2**64 - 3, 2**96 - 3, 2**128 - 3])
def test_draws_equal_uniform_calls_across_a_word_boundary(seed):
    assert_draws_match_oracle(7, seed)


def test_draws_equal_uniform_calls_past_the_pool():
    assert_draws_match_oracle(7, 2**160)


@given(st.integers(0, 2**160), st.integers(1, 40))
@settings(max_examples=50, deadline=None)
def test_draws_equal_uniform_calls_for_any_seed(seed, trials):
    assert_draws_match_oracle(trials, seed)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_neighbouring_seeds_share_no_draw(seed):
    rows, _ = verify_mod._draws(1000, seed)
    next_rows, _ = verify_mod._draws(1000, seed + 1)
    assert {r.tobytes() for r in rows}.isdisjoint(r.tobytes() for r in next_rows)


def test_all_suites_pass_on_correct_build():
    results = run_suites(200, seed=1)
    assert tuple(r.name for r in results) == SUITE_NAMES
    for r in results:
        assert r.passed, (r.name, r.detail)
        assert r.trials == 200
        assert r.failures == 0
        assert r.detail == "ok"
        # a result is a value: hashable, and no caller can rewrite its verdict
        hash(r)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.passed = False


def test_all_suites_pass_over_a_sweep_of_seeds():
    # distinct seeds draw distinct points: 200k draws in all
    for seed in range(100):
        failed = [(r.name, r.detail) for r in run_suites(2000, seed) if not r.passed]
        assert failed == [], seed


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        run_suites(0, seed=1)
    with pytest.raises(ValueError):
        run_suites(-5, seed=1)


@pytest.mark.parametrize("trials, seed", [(10, 1.5), (10.0, 1), (10, "1"), (10, None)])
def test_trials_and_seed_must_be_integers(trials, seed):
    # a float seed must not be truncated to a neighbouring seed; the first
    # value that is not an integer is named
    name, value = ("seed", seed) if type(trials) is int else ("trials", trials)
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
        run_suites(trials, seed)


def test_numpy_integers_are_accepted():
    assert run_suites(np.int64(20), np.uint64(5)) == run_suites(20, 5)


def test_single_trial_runs():
    results = run_suites(1, seed=3)
    assert all(r.trials == 1 for r in results)


def test_skewed_simulator_is_caught_and_reported(monkeypatch):
    # a constant offset well above tolerance must trip the equivalence
    # suite and name the first draw and its seed
    real = verify_mod.circuit_expectation
    monkeypatch.setattr(
        verify_mod, "circuit_expectation", lambda params, x: real(params, x) + 1e-6
    )
    results = {r.name: r for r in run_suites(50, seed=10)}
    eq = results["equivalence"]
    assert not eq.passed
    assert eq.failures == 50
    assert eq.detail.startswith("first failure at draw 0 of seed 10: |sim - closed| = ")
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
    assert eq.detail == "first failure at draw 0 of seed 5: |sim - closed| = nan"
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
    (0.999, "3.994e-03"),  # a norm below 1 fails as one above does
    (math.nan, "nan"),
])
def test_unnormalized_states_fail_the_normalization_suite(monkeypatch, factor, error):
    scale_amplitudes(monkeypatch, factor)
    results = {r.name: r for r in run_suites(40, seed=4)}
    norm = results["normalization"]
    assert not norm.passed
    assert norm.failures == 40
    assert norm.detail == f"first failure at draw 0 of seed 4: | |psi|^2 - 1 | = {error}"
    # the state and the output share one amplitude step, so the output
    # moves too; the closed form and its cubic truncation do not
    assert not results["equivalence"].passed
    assert results["equivalence"].failures == 40
    assert results["remainder"].passed
    # a NaN output lies outside every range; 1.001 and 0.999 stay inside on these draws
    assert results["boundedness"].passed == (not math.isnan(factor))


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
    assert 0 < failures < 60 and not detail.startswith("first failure at draw 0 of seed 20:")
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
    assert 0 < failures < 60 and not detail.startswith("first failure at draw 0 of seed 6:")
    eq = _suite("equivalence", 60, 6)
    assert (eq.failures, eq.detail) == (failures, detail)


def remainder_bound(g, h=1e-3):
    """The remainder suite's stated bound for one draw's g at step h."""
    return (5 / 24 * h**4 + 64 * 2.0**-52) * float(abs(g[0]) + abs(g[1]) + abs(g[2]) + abs(g[3]))


def test_first_failure_of_a_partly_skewed_remainder(monkeypatch):
    # the remainder grows 1000x on draws with theta1 > 0
    real = verify_mod.cubic_remainder
    skew = lambda v, x: real(v, x) * np.where(v[..., 0] > 0, 1000.0, 1.0)
    monkeypatch.setattr(verify_mod, "cubic_remainder", skew)

    def check(v, _x):
        r, bound = float(skew(v, 1e-3)), remainder_bound(v[2:])
        return None if r <= bound else f"remainder {r!r} above its bound {bound!r}"

    failures, detail = per_draw_failures(60, 8, check)
    assert 0 < failures < 60 and not detail.startswith("first failure at draw 0 of seed 8:")
    rem = _suite("remainder", 60, 8)
    assert (rem.failures, rem.detail) == (failures, detail)


def test_each_suite_passes_at_its_stated_bound_and_fails_one_ulp_past_it(monkeypatch):
    # the bounds the module docstring and the messages state: 1e-12 between
    # simulator and closed form, and 1e-12 slack outside [min(g), max(g)]
    up = lambda v: np.nextafter(v, np.inf)
    sim = np.array([1e-12, -1e-12, up(1e-12), -up(1e-12), 0.0, 0.0])
    # g = 0: the closed form and the remainder are 0 and min(g) = max(g) = 0;
    # the angles take no part in the range, and draws 2 and 3, just outside
    # it, lie inside theirs
    rows = np.zeros((6, 6))
    rows[2, :2], rows[3, :2] = 1.0, -1.0
    monkeypatch.setattr(verify_mod, "_draws", lambda trials, seed: (rows, np.zeros(6)))
    monkeypatch.setattr(verify_mod, "circuit_expectation", lambda rows, xs: sim)
    got = {r.name: (r.failures, r.detail) for r in run_suites(6, 0)}
    assert got == {
        "equivalence": (2, "first failure at draw 2 of seed 0: |sim - closed| = 1.000e-12"),
        "normalization": (0, "ok"),
        "boundedness": (
            2, f"first failure at draw 2 of seed 0: value {float(up(1e-12))!r} outside [0.0, 0.0]"
        ),
        "remainder": (0, "ok"),
    }


def patch_remainder(monkeypatch, g_rows, remainders):
    """Draws with the given g columns and angles (0.5, -1.5), whose remainder
    at any step is ``remainders``; returns the list of steps asked for."""
    rows = np.array([[0.5, -1.5, *g] for g in g_rows])
    steps = []

    def remainder(v, x):
        assert v is rows
        steps.append(x)
        return np.array(remainders)

    monkeypatch.setattr(verify_mod, "_draws", lambda trials, seed: (rows, np.zeros(len(rows))))
    monkeypatch.setattr(verify_mod, "cubic_remainder", remainder)
    return steps


def test_the_remainder_passes_at_its_bound_and_fails_one_ulp_past_it(monkeypatch):
    # (5/24 h^4 + 64 eps) sum|g| at h = 1e-3, from the draw's own g; every
    # draw is checked, a g = 0 draw against a bound of 0, and NaN fails
    unit, four = (0.25, -0.25, 0.25, -0.25), (1.0, 1.0, -1.0, 1.0)
    c = remainder_bound(unit)
    assert remainder_bound(four) == 4 * c
    steps = patch_remainder(
        monkeypatch,
        [unit, unit, four, four, (0.0,) * 4, (0.0,) * 4, (0.5, -1.5, 2.0, 0.0)],
        [c, np.nextafter(c, 1.0), 4 * c, np.nextafter(4 * c, 1.0), 0.0, 5e-324, np.nan],
    )
    rem = _suite("remainder", 7, 0)
    assert steps == [1e-3]
    assert (rem.failures, rem.detail) == (
        4, f"first failure at draw 1 of seed 0: remainder {float(np.nextafter(c, 1.0))!r} above its bound {c!r}"
    )


def test_a_draw_with_no_quartic_term_is_checked(monkeypatch):
    # g = (1, 1, 1, 1) makes the output the constant 1, so the true remainder
    # is 0; a small remainder there is no less a fault, and is not skipped
    row = np.array([0.5, -1.5, 1.0, 1.0, 1.0, 1.0])
    assert verify_mod.cubic_remainder(row, 1e-3) == 0.0
    patch_remainder(monkeypatch, [(1.0,) * 4], [5e-11])
    rem = _suite("remainder", 1, 0)
    assert (rem.failures, rem.detail) == (
        1, f"first failure at draw 0 of seed 0: remainder 5e-11 above its bound {remainder_bound((1.0,) * 4)!r}"
    )


def test_a_cubic_with_a3s_sign_flipped_fails_the_remainder_suite(monkeypatch):
    real = analytic._maclaurin
    monkeypatch.setattr(analytic, "_maclaurin", lambda *w: (*real(*w)[:3], -real(*w)[3]))
    results = {r.name: r for r in run_suites(1000, 42)}
    assert results["remainder"].failures > 990
    assert all(results[name].passed for name in ("equivalence", "normalization", "boundedness"))


def test_remainder_failure_names_the_bounds_the_check_reads(monkeypatch):
    # the step and the bound are read from REMAINDER_STEP when the suite
    # runs, so moving the step moves the bound and the text with it
    monkeypatch.setattr(verify_mod, "REMAINDER_STEP", 0.5)
    steps = patch_remainder(monkeypatch, [(0.25, -0.25, 0.25, -0.25)] * 5, [1.0] * 5)
    rem = _suite("remainder", 5, 0)
    assert steps == [0.5]
    assert (rem.failures, rem.detail) == (
        5, f"first failure at draw 0 of seed 0: remainder 1.0 above its bound {remainder_bound((0.25, -0.25, 0.25, -0.25), 0.5)!r}"
    )


def test_reported_first_failure_replays_alone(monkeypatch):
    real = verify_mod.circuit_expectation
    skew = lambda v, x: real(v, x) + np.where(np.asarray(x) > 0, 1e-6, 0.0)
    monkeypatch.setattr(verify_mod, "circuit_expectation", skew)

    def fails(v, x):
        return not abs(skew(v, x) - verify_mod.closed_form_expectation(v, x)) <= verify_mod.EQUIV_TOL

    eq = _suite("equivalence", 60, 20)
    assert 0 < eq.failures < 60
    match = re.match(r"first failure at draw (\d+) of seed 20: ", eq.detail)
    assert match, eq.detail
    i = int(match.group(1))
    assert i > 0
    # the named draw, rebuilt from the seed alone, fails; every draw before it passes
    assert fails(*replay(20, i))
    assert not any(fails(*replay(20, j)) for j in range(i))
