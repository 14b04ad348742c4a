import math

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
    random_init,
)
from qubitfit.chemotaxis import random_vector

from oracles import chemotaxis_restart, uniform_vector


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
        OptimizerConfig(sigma0=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(sigma0=math.nan)
    with pytest.raises(ValueError):
        OptimizerConfig(sigma_shrink=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(sigma_shrink=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(fail_streak=0)
    with pytest.raises(ValueError):
        OptimizerConfig(seed=-1)


def test_random_init_is_deterministic_and_in_range():
    assert random_init(123) == random_init(123)
    draws = np.array([random_init(s).as_vector() for s in range(1000)])
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


def assert_optimize_equals_oracle(target, grid, cfg):
    """``optimize`` equals the per-proposal ``rng.normal`` loop of the oracle bit for bit."""
    got = optimize(target, grid, cfg)
    runs = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        start = cfg.init.as_vector() if cfg.init is not None else uniform_vector(rng)
        runs.append(chemotaxis_restart(
            lambda v: performance_index(v, target, grid), start, rng,
            cfg.iterations, cfg.sigma0, cfg.sigma_shrink, cfg.fail_streak,
        ))
    point, value, trace, _ = min(runs, key=lambda run: run[1])  # ties: lowest restart
    assert got.best.as_vector().tobytes() == point.tobytes()
    assert got.j_final == value
    assert got.j_trace == tuple(trace)
    assert got.evals == sum(run[3] for run in runs)


# 255-257 straddle the optimizer's block of normals; at sigma0 = 1e308 every
# candidate overflows and is rejected, so every iteration draws a fresh step
@pytest.mark.parametrize("sigma0", [0.3, 1e308])
@pytest.mark.parametrize("iterations", [0, 1, 255, 256, 257, 1200])
def test_steps_follow_the_normal_law_across_blocks(iterations, sigma0):
    cfg = OptimizerConfig(iterations=iterations, restarts=2, seed=11, sigma0=sigma0)
    with np.errstate(all="ignore"):
        assert_optimize_equals_oracle(get_target("gaussian"), make_grid(30, 1.5), cfg)


@pytest.mark.parametrize("init", [None, CircuitParams(0.4, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))])
def test_steps_follow_the_normal_law_through_shrinks(init):
    # three rejections in a row shrink sigma, many times within one block
    cfg = OptimizerConfig(iterations=900, restarts=2, seed=5, fail_streak=3, init=init)
    assert_optimize_equals_oracle(get_target("sigmoid"), make_grid(30, 1.5), cfg)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**63))
def test_steps_follow_the_normal_law_for_any_seed(seed):
    cfg = OptimizerConfig(iterations=300, restarts=1, seed=seed, fail_streak=10)
    assert_optimize_equals_oracle(get_target("quadratic"), make_grid(30, 1.5), cfg)


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


def test_zero_iterations_returns_init_unchanged():
    init = CircuitParams(0.4, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    grid = make_grid(30, 1.5)
    target = get_target("quadratic")
    result = optimize(target, grid, OptimizerConfig(iterations=0, restarts=1, init=init, seed=3))
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


def test_self_fit_recovers_known_optimum():
    # the target IS the circuit at a known point, so J = 0 is attainable;
    # a perturbed start must come back below 1e-3
    pstar = CircuitParams(0.4, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    target = TargetFunction("selffit", lambda x: circuit_expectation_grid(pstar, x))
    grid = make_grid(30, 1.5)
    init = CircuitParams.from_vector(pstar.as_vector() + 0.2)
    cfg = OptimizerConfig(iterations=4000, restarts=1, init=init, seed=7)
    result = optimize(target, grid, cfg)
    assert result.j_final <= 1e-3


def test_nonfinite_start_raises():
    bad = TargetFunction("bad", lambda x: np.full(np.shape(x), np.inf))
    with pytest.raises(ValueError):
        optimize(bad, make_grid(5, 1.0), OptimizerConfig(iterations=1, restarts=1, seed=0))


def test_overflowing_candidates_are_ordinary_rejections():
    # steps of scale 1e308 overflow to non-finite candidates; the loop must
    # reject them like any other worse point instead of raising
    grid = make_grid(30, 1.5)
    target = get_target("gaussian")
    cfg = OptimizerConfig(iterations=200, restarts=2, seed=1, sigma0=1e308)
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
