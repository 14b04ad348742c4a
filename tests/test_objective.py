import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubitfit import (
    CircuitParams,
    get_target,
    make_grid,
    max_pointwise_error,
    performance_index,
    polynomial_target,
)

from conftest import random_params
from oracles import sum_of_squares_index


def test_builtin_target_values():
    assert get_target("quadratic")(1.5) == 2.25
    assert get_target("gaussian")(0.0) == 1.0
    assert math.isclose(get_target("gaussian")(1.0), math.exp(-1.0), rel_tol=1e-15)
    assert math.isclose(get_target("sigmoid")(0.7), math.tanh(0.7), rel_tol=1e-15)


def test_targets_vectorize():
    xs = np.linspace(-1.5, 1.5, 7)
    out = get_target("sigmoid")(xs)
    assert out.shape == xs.shape
    assert np.allclose(out, np.tanh(xs), atol=0)


def test_get_target_rejects_unknown_id():
    with pytest.raises(ValueError):
        get_target("cubic")


def test_custom_target_requires_coefficients():
    with pytest.raises(ValueError):
        get_target("custom")
    with pytest.raises(ValueError):
        polynomial_target([])
    with pytest.raises(ValueError):
        polynomial_target([1.0, math.nan])


def test_polynomial_target_matches_quadratic():
    xs = np.linspace(-2.0, 2.0, 11)
    custom = get_target("custom", poly=[0.0, 0.0, 1.0])
    assert custom.id == "custom"
    assert np.allclose(custom(xs), np.square(xs), atol=0)
    affine = polynomial_target([2.0, -3.0])
    assert affine(0.5) == 0.5


def test_grid_is_uniform_and_inclusive():
    grid = make_grid(30, 1.5)
    assert grid.n == 30
    assert grid.x0 == 1.5
    assert grid.points[0] == -1.5
    assert grid.points[-1] == 1.5
    assert np.allclose(np.diff(grid.points), 3.0 / 29.0, atol=1e-15)

    tiny = make_grid(2, 0.5)
    assert np.array_equal(tiny.points, np.array([-0.5, 0.5]))


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(1, 1.5)
    with pytest.raises(ValueError):
        make_grid(30, 0.0)
    with pytest.raises(ValueError):
        make_grid(30, -1.0)
    with pytest.raises(ValueError):
        make_grid(30, math.inf)


def test_grid_points_are_read_only():
    grid = make_grid(5, 1.0)
    with pytest.raises(ValueError):
        grid.points[0] = 0.0


def test_index_against_hand_computed_sum():
    # g = (1,1,1,1) forces the circuit output to 1 everywhere, so the
    # index reduces to sum (e^{-x^2} - 1)^2 over the grid
    params = CircuitParams(0.8, -0.4, np.ones(4))
    grid = make_grid(30, 1.5)
    expected = sum(
        (math.exp(-x * x) - 1.0) ** 2 for x in grid.points
    )
    got = performance_index(params, get_target("gaussian"), grid)
    assert math.isclose(got, expected, rel_tol=1e-12)
    assert math.isclose(
        max_pointwise_error(params, get_target("gaussian"), grid),
        1.0 - math.exp(-1.5 * 1.5),
        rel_tol=1e-12,
    )


def test_index_matches_bruteforce_loop():
    rng = np.random.default_rng(31)
    grid = make_grid(30, 1.5)
    target = get_target("quadratic")
    for _ in range(20):
        params = random_params(rng)
        got = performance_index(params, target, grid)
        assert math.isclose(got, sum_of_squares_index(params, target, grid.points), rel_tol=1e-12)


def test_index_of_raw_vector_equals_index_of_params():
    rng = np.random.default_rng(5)
    grid = make_grid(30, 1.5)
    for target_id in ("quadratic", "gaussian", "sigmoid"):
        target = get_target(target_id)
        for _ in range(20):
            v = random_params(rng).as_vector()
            assert performance_index(v, target, grid) == performance_index(
                CircuitParams.from_vector(v), target, grid
            )
    with pytest.raises(ValueError):
        performance_index(np.ones(5), get_target("quadratic"), grid)


def test_index_with_precomputed_target_values_is_the_same_double():
    # the residual is formed in the kernel's output, never in the caller's
    # arrays: read-only values and grid points stay as they were
    rng = np.random.default_rng(8)
    grid = make_grid(30, 1.5)
    points = grid.points.tobytes()
    for target in (get_target("gaussian"), get_target("sigmoid"), polynomial_target([1, -2, 0.5])):
        values = target.fn(grid.points)
        values.setflags(write=False)
        before = values.tobytes()
        for _ in range(20):
            p = random_params(rng)
            for params in (p, p.as_vector()):
                want = performance_index(params, target, grid)
                assert performance_index(params, target, grid, values) == want
        assert values.tobytes() == before
    assert grid.points.tobytes() == points


@given(st.integers(min_value=2, max_value=60), st.floats(min_value=0.1, max_value=3.0))
def test_error_squared_never_exceeds_index(n, x0):
    params = CircuitParams(0.3, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    grid = make_grid(n, x0)
    target = get_target("sigmoid")
    j = performance_index(params, target, grid)
    eps = max_pointwise_error(params, target, grid)
    assert eps * eps <= j * (1.0 + 1e-12) + 1e-300
    assert j <= n * eps * eps * (1.0 + 1e-12) + 1e-300
