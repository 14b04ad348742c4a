import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize as sp_optimize

from qubitfit import (
    CircuitParams,
    OptimizerConfig,
    TargetFunction,
    circuit_expectation_grid,
    get_target,
    make_grid,
    optimize,
    performance_index,
    polynomial_target,
)
import qubitfit.chemotaxis as chemotaxis_mod
from qubitfit.chemotaxis import NORMAL_BLOCK, random_vector

from conftest import start_at
from oracles import chemotaxis_restart, fourier_optimum, uniform_vector


def small_cfg(**kw):
    base = dict(iterations=300, restarts=2, seed=11)
    base.update(kw)
    return OptimizerConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(iterations=-1)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(seed=-1)
    # a setting that is not an integer is rejected here, not deep in a restart
    for name, bad in (("iterations", 10.0), ("restarts", 2.0), ("seed", 1.5), ("seed", "3")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            OptimizerConfig(**{name: bad})
    # numpy integers are integers, and restart seeds past their range do
    # not wrap: restart r runs on seed + r as a Python int
    grid = make_grid(30, 1.5)
    for seed in (3, 2**64 - 1):
        cfg = OptimizerConfig(iterations=np.int64(20), restarts=np.int32(2), seed=np.uint64(seed))
        got, want = (optimize(get_target("quadratic"), grid, c) for c in (cfg, small_cfg(iterations=20, seed=seed)))
        assert (got.j_final, got.j_trace, got.evals) == (want.j_final, want.j_trace, want.evals)
        assert type(got.evals) is int


def test_config_stores_python_ints():
    cfg = OptimizerConfig(np.int64(3), np.int8(2), np.uint64(7))
    assert [type(v) for v in (cfg.iterations, cfg.restarts, cfg.seed)] == [int] * 3
    assert repr(cfg) == "OptimizerConfig(iterations=3, restarts=2, seed=7)"
    grid = make_grid(30, 1.5)
    got, want = (optimize(get_target("gaussian"), grid, c) for c in (cfg, OptimizerConfig(3, 2, 7)))
    assert got.best.as_vector().tobytes() == want.best.as_vector().tobytes()
    assert (got.j_final, got.j_trace, got.max_error, got.evals) == (want.j_final, want.j_trace, want.max_error, want.evals)


def test_random_vector_is_deterministic_and_in_range():
    def draw(s):
        return random_vector(np.random.default_rng(s))

    assert draw(123).tobytes() == draw(123).tobytes()
    draws = np.array([draw(s) for s in range(1000)])
    thetas, gs = draws[:, :2], draws[:, 2:]
    assert np.all(np.abs(thetas) < math.pi)
    assert np.all(np.abs(gs) < 2.0)
    # law of large numbers at this sample size
    assert np.all(np.abs(draws.mean(axis=0)) < 0.2)


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_random_vector_equals_uniform_calls_and_consumes_the_same_stream(seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert random_vector(rng).tobytes() == uniform_vector(oracle_rng).tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # the next draw of any kind continues the same stream
    assert rng.normal(0.0, 0.3, 6).tobytes() == oracle_rng.normal(0.0, 0.3, 6).tobytes()


def oracle_restart(index, cfg, r, init=None, law=None):
    """The oracle's restart r under the step-size ``law`` (the module's by
    default), from ``init`` or a fresh draw."""
    rng = np.random.default_rng(cfg.seed + r)
    start = init.as_vector() if init is not None else uniform_vector(rng)
    if law is None:
        law = (chemotaxis_mod.SIGMA0, chemotaxis_mod.SIGMA_SHRINK, chemotaxis_mod.FAIL_STREAK)
    return chemotaxis_restart(index, start, rng, cfg.iterations, *law)


def assert_optimize_equals_oracle(target, grid, cfg, init=None):
    """``optimize`` equals the per-proposal ``rng.normal`` loop of the oracle bit for bit."""
    got = optimize(target, grid, cfg)
    runs = [oracle_restart(lambda v: performance_index(v, target, grid), cfg, r, init)
            for r in range(cfg.restarts)]
    point, value, trace, _ = min(runs, key=lambda run: run[1])  # ties: lowest restart
    assert got.best.as_vector().tobytes() == point.tobytes()
    assert got.j_final == value
    assert got.j_trace == tuple(trace)
    assert got.evals == sum(run[3] for run in runs)


# 255-257 straddle the optimizer's block of normals; at a step scale of
# 1e308 every candidate overflows and is rejected, so every iteration draws
# a fresh step; at 1e-300 every candidate rounds to its point, and an equal
# index is a rejection too
@pytest.mark.parametrize("sigma0", [0.3, 1e308, 1e-300])
@pytest.mark.parametrize("iterations", [0, 1, 255, 256, 257, 1200])
def test_steps_follow_the_normal_law_across_blocks(iterations, sigma0, monkeypatch):
    monkeypatch.setattr(chemotaxis_mod, "SIGMA0", sigma0)
    cfg = OptimizerConfig(iterations=iterations, restarts=2, seed=11)
    with np.errstate(all="ignore"):
        assert_optimize_equals_oracle(get_target("gaussian"), make_grid(30, 1.5), cfg)


@pytest.mark.parametrize("init", [None, CircuitParams(0.4, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))])
def test_steps_follow_the_normal_law_through_shrinks(init, monkeypatch):
    # three rejections in a row shrink sigma, many times within one block
    monkeypatch.setattr(chemotaxis_mod, "FAIL_STREAK", 3)
    if init is not None:
        start_at(monkeypatch, init)
    cfg = OptimizerConfig(iterations=900, restarts=2, seed=5)
    assert_optimize_equals_oracle(get_target("sigmoid"), make_grid(30, 1.5), cfg, init)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_steps_follow_the_normal_law_for_any_seed(seed):
    cfg = OptimizerConfig(iterations=300, restarts=1, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chemotaxis_mod, "FAIL_STREAK", 10)
        assert_optimize_equals_oracle(get_target("quadratic"), make_grid(30, 1.5), cfg)


def test_the_step_law_is_the_documented_one(monkeypatch):
    # scale 0.3, times 0.7 after 50 rejections in a row counted from the
    # start: from this near-optimal start nothing is accepted before the
    # fourth shrink, and every candidate is the oracle's under that law
    pstar = CircuitParams(0.4, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    target = TargetFunction("selffit", lambda x: circuit_expectation_grid(pstar, x))
    grid = make_grid(30, 1.5)
    init = CircuitParams.from_vector(pstar.as_vector() + 0.01)
    start_at(monkeypatch, init)
    cfg = OptimizerConfig(iterations=400, restarts=1, seed=7)
    real, calls, oracle_calls = chemotaxis_mod.performance_index, [], []

    def counted(params, *args):
        calls.append(params.tobytes())
        return real(params, *args)

    def index(v):
        oracle_calls.append(v.tobytes())
        return performance_index(v, target, grid)

    monkeypatch.setattr(chemotaxis_mod, "performance_index", counted)
    result = optimize(target, grid, cfg)
    oracle_restart(index, cfg, 0, init, law=(0.3, 0.7, 50))
    assert calls == oracle_calls and result.j_trace[1][0] > 200


def test_one_index_call_per_evaluation_across_blocks_accepts_and_shrinks(monkeypatch):
    # every evaluation is one call of the index through the module's name,
    # with the candidate the per-proposal oracle loop builds
    target, grid = get_target("sigmoid"), make_grid(30, 1.5)
    fail_streak = 10
    monkeypatch.setattr(chemotaxis_mod, "FAIL_STREAK", fail_streak)
    cfg = OptimizerConfig(iterations=900, restarts=2, seed=5)
    real = chemotaxis_mod.performance_index
    calls = []

    def counted(params, *args):
        value = real(params, *args)
        calls.append((params.tobytes(), value))
        return value

    monkeypatch.setattr(chemotaxis_mod, "performance_index", counted)
    result = optimize(target, grid, cfg)
    assert len(calls) == result.evals == cfg.restarts * (cfg.iterations + 1)

    oracle_calls = []

    def index(v):
        value = performance_index(v, target, grid)
        oracle_calls.append((v.tobytes(), value))
        return value

    for r in range(cfg.restarts):
        oracle_restart(index, cfg, r)
    assert calls == oracle_calls

    # the calls cover accepts followed by a rejection, and shrinks, in the
    # middle of a block of normals as well as across blocks
    accept_then_reject = shrinks = 0
    for r in range(cfg.restarts):
        values = [value for _, value in calls[r * (cfg.iterations + 1):(r + 1) * (cfg.iterations + 1)]]
        current, replaying, drawn, fails = values[0], False, 0, 0
        accepted_mid_block = False
        for value in values[1:]:
            fresh = not replaying
            drawn += fresh
            mid_block = fresh and drawn % NORMAL_BLOCK not in (0, 1)
            if math.isfinite(value) and value < current:
                current, replaying, fails = value, True, 0
                accepted_mid_block = mid_block
            else:
                accept_then_reject += accepted_mid_block
                replaying, accepted_mid_block = False, False
                fails += 1
                if fails == fail_streak:
                    shrinks += mid_block
                    fails = 0
    assert drawn > 2 * NORMAL_BLOCK
    assert accept_then_reject > 10 and shrinks > 10


def test_optimize_evaluates_the_target_once():
    calls = []

    def fn(x):
        calls.append(x)
        return np.square(x)

    grid = make_grid(30, 1.5)
    result = optimize(TargetFunction("counted", fn), grid, small_cfg(iterations=50))
    # one evaluation for the index loop, one for max_pointwise_error
    assert len(calls) == 2
    plain = optimize(get_target("quadratic"), grid, small_cfg(iterations=50))
    assert (result.j_final, result.j_trace, result.best) == (plain.j_final, plain.j_trace, plain.best)


CONTRACT_TARGETS = [get_target(t) for t in ("quadratic", "gaussian", "sigmoid")]
CONTRACT_TARGETS.append(polynomial_target([0.2, -0.5, 0.3, 0.4]))


@pytest.mark.parametrize("n, x0", [(30, 1.5), (7, 0.5)])
@pytest.mark.parametrize("target", CONTRACT_TARGETS, ids=lambda t: t.id)
def test_every_evaluation_is_one_index_call_on_one_workspace(target, n, x0, monkeypatch):
    # the evaluation contract: a fit builds one workspace, and each of its
    # restarts * (iterations + 1) evaluations is one index call whose one
    # row reaches that workspace and whose J has the bytes of the residual
    # sum of squares; the trace reads one restart's records. Rows are counted
    # at the workspace's index, the one closure that runs its kernel and sums
    # the residual, and which calls its expectation closure directly
    grid = make_grid(n, x0)
    values = target.fn(grid)
    real_workspace, real_index = chemotaxis_mod.Workspace, chemotaxis_mod.performance_index
    built, rows, calls = [], [], []

    def recording_workspace(*args):
        ws = real_workspace(*args)
        index = ws.index

        def recorded(v):
            rows.append(np.array(v, dtype=float).reshape(-1, 6))
            return index(v)

        ws.index = recorded
        built.append(ws)
        return ws

    def recording_index(params, *args):
        value = real_index(params, *args)
        calls.append((params.copy(), value, args[-1]))
        return value

    monkeypatch.setattr(chemotaxis_mod, "Workspace", recording_workspace)
    monkeypatch.setattr(chemotaxis_mod, "performance_index", recording_index)
    for iterations in (0, 1, 49, 50, 51, 300):
        for restarts in (1, 2, 3):
            for log in (built, rows, calls):
                log.clear()
            result = optimize(target, grid, OptimizerConfig(iterations=iterations, restarts=restarts, seed=5))
            evals = restarts * (iterations + 1)
            assert len(built) == 1 and all(ws is built[0] for _, _, ws in calls)
            consumed = np.concatenate(rows)
            assert len(calls) == len(consumed) == result.evals == evals
            for (row, value, _), reached in zip(calls, consumed):
                assert row.tobytes() == reached.tobytes()
                r = values - circuit_expectation_grid(row, grid)
                assert np.float64(value).tobytes() == np.float64(r.dot(r)).tobytes()
            blocks = [calls[b:b + iterations + 1] for b in range(0, evals, iterations + 1)]
            assert any(
                all(np.float64(block[it][1]).tobytes() == np.float64(j).tobytes() for it, j in result.j_trace)
                for block in blocks
            )


def test_zero_iterations_returns_init_unchanged(monkeypatch):
    init = CircuitParams(0.4, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    grid = make_grid(30, 1.5)
    target = get_target("quadratic")
    start_at(monkeypatch, init)
    result = optimize(target, grid, OptimizerConfig(iterations=0, restarts=1, seed=3))
    assert result.best == init
    assert result.j_trace == ((0, performance_index(init, target, grid)),)
    assert result.j_final == result.j_trace[0][1]
    assert result.evals == 1


def test_trace_is_nonincreasing_and_consistent():
    grid = make_grid(30, 1.5)
    result = optimize(get_target("quadratic"), grid, small_cfg())
    values = [j for _, j in result.j_trace]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert result.j_trace[0][0] == 0
    assert result.j_final == values[-1]
    assert result.max_error**2 <= result.j_final * (1.0 + 1e-12)


def test_evals_count_one_per_iteration_plus_inits():
    grid = make_grid(30, 1.5)
    cfg = small_cfg(iterations=123, restarts=4)
    result = optimize(get_target("sigmoid"), grid, cfg)
    assert result.evals == cfg.restarts * (cfg.iterations + 1)


def test_identical_seeds_give_bit_identical_results():
    grid = make_grid(30, 1.5)
    a = optimize(get_target("gaussian"), grid, small_cfg())
    b = optimize(get_target("gaussian"), grid, small_cfg())
    assert a.best.as_vector().tobytes() == b.best.as_vector().tobytes()
    assert a.j_final == b.j_final
    assert a.j_trace == b.j_trace
    assert a.evals == b.evals


def test_self_fit_recovers_known_optimum(monkeypatch):
    # the target IS the circuit at a known point, so J = 0 is attainable;
    # a perturbed start must come back below 1e-3
    pstar = CircuitParams(0.4, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    target = TargetFunction("selffit", lambda x: circuit_expectation_grid(pstar, x))
    grid = make_grid(30, 1.5)
    start_at(monkeypatch, CircuitParams.from_vector(pstar.as_vector() + 0.2))
    cfg = OptimizerConfig(iterations=4000, restarts=1, seed=7)
    result = optimize(target, grid, cfg)
    assert result.j_final <= 1e-3


def test_nonfinite_start_raises(monkeypatch):
    # a target that overflows the index is rejected by name before any restart
    bad = TargetFunction("bad", lambda x: np.full(np.shape(x), np.inf))
    cfg = OptimizerConfig(iterations=1, restarts=1, seed=0)
    with pytest.raises(ValueError, match=r"^target 'bad' overflows the performance index on the grid with x0=1\.0$"):
        optimize(bad, make_grid(5, 1.0), cfg)
    # and a finite target at a start whose index is not finite
    monkeypatch.setattr(chemotaxis_mod, "random_vector", lambda rng: np.full(6, np.nan))
    with pytest.raises(ValueError, match=r"^performance index is not finite at the starting point$"):
        optimize(get_target("quadratic"), make_grid(5, 1.0), cfg)


def test_a_target_whose_squares_overflow_is_rejected_without_a_warning():
    # the pre-check's sum overflows to inf by design, which numpy reports as a
    # RuntimeWarning; the documented outcome is the ValueError alone
    cfg = OptimizerConfig(iterations=1, restarts=1, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^target 'custom' overflows the performance index on the grid with x0=1\.5$"):
            optimize(polynomial_target([1e200, 0.0, 1e200]), make_grid(30, 1.5), cfg)


def test_overflowing_candidates_are_ordinary_rejections(monkeypatch):
    # steps of scale 1e308 overflow to non-finite candidates; the loop must
    # reject them like any other worse point instead of raising
    grid = make_grid(30, 1.5)
    target = get_target("gaussian")
    monkeypatch.setattr(chemotaxis_mod, "SIGMA0", 1e308)
    cfg = OptimizerConfig(iterations=200, restarts=2, seed=1)
    with np.errstate(all="ignore"):
        result = optimize(target, grid, cfg)
    assert result.evals == cfg.restarts * (cfg.iterations + 1)
    assert math.isfinite(result.j_final)
    assert performance_index(result.best, target, grid) == result.j_final
    values = [j for _, j in result.j_trace]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_best_point_leaves_little_for_simplex_polish(reproduction_report):
    # an independent local polish of the returned optimum must not find
    # more than a 2x improvement on any bundled target
    grid = make_grid(30, 1.5)
    for target_id, fit in reproduction_report.fits.items():
        target = get_target(target_id)

        def j_of(v):
            return performance_index(CircuitParams.from_vector(v), target, grid)

        polished = sp_optimize.minimize(
            j_of,
            fit.best.as_vector(),
            method="Nelder-Mead",
            options={"maxfev": 4000, "xatol": 1e-10, "fatol": 1e-12},
        )
        floor = max(polished.fun, 1e-12)
        assert fit.j_final <= 2.0 * floor, (target_id, fit.j_final, polished.fun)


def certified_slack(values, cond, *gs):
    """How far a computed residual norm may sit from the exact one at the same point.

    The fit's residual carries rounding of order ``cond * eps`` of the
    values and the circuit's outputs, bounded by max |g|, of order eps.
    """
    scale = np.linalg.norm(values) + math.sqrt(len(values)) * max(float(np.abs(g).max()) for g in gs)
    return 16.0 * cond * np.finfo(float).eps * scale


@pytest.mark.parametrize(
    ("target_id", "j_star"), [("quadratic", 3.263242e-4), ("gaussian", 2.010273e-3), ("sigmoid", 2.980880e-3)]
)
def test_the_certified_optimum_rescores_to_its_j(target_id, j_star, reproduction_report):
    # the params built from the least-squares weights reach J*, so J* is the
    # global minimum over every circuit, not a bound below it; the paper-budget
    # run at seed 42 stays at or above it
    grid = make_grid(30, 1.5)
    target = get_target(target_id)
    values = target.fn(grid)
    got, params, cond = fourier_optimum(values, grid)
    assert math.isclose(got, j_star, rel_tol=1e-6)
    assert 23.8 < cond < 23.9
    slack = certified_slack(values, cond, params.g)
    assert abs(math.sqrt(performance_index(params, target, grid)) - math.sqrt(got)) <= slack
    fit = reproduction_report.fits[target_id]
    assert math.sqrt(fit.j_final) >= math.sqrt(got) - certified_slack(values, cond, params.g, fit.best.g)


targets = st.one_of(
    st.sampled_from(["quadratic", "gaussian", "sigmoid"]).map(get_target),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5).map(polynomial_target),
)


@settings(max_examples=40, deadline=None)
@given(
    targets,
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=0.5, max_value=3.0),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=1, max_value=3),
)
def test_no_run_beats_the_certified_optimum(target, seed, n, x0, iterations, restarts):
    # j_final >= J* (1 - tol) with J* (1 - tol) = (sqrt(J*) - slack)^2: the
    # residual norms, not their squares, carry rounding of a fixed size, so
    # J* near 0 needs no tolerance of its own
    grid = make_grid(n, x0)
    values = target.fn(grid)
    j_star, params, cond = fourier_optimum(values, grid)
    result = optimize(target, grid, OptimizerConfig(iterations=iterations, restarts=restarts, seed=seed))
    slack = certified_slack(values, cond, params.g, result.best.g)
    assert math.sqrt(result.j_final) >= math.sqrt(j_star) - slack, (result.j_final, j_star, cond)
