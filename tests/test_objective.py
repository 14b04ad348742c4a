import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubitfit import (
    CircuitParams,
    circuit_expectation_grid,
    get_target,
    make_grid,
    max_pointwise_error,
    performance_index,
    polynomial_target,
)
from qubitfit.circuit import Workspace
from qubitfit.objective import PreparedIndex

from conftest import random_params, workspace_rows
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
    # an empty list and a non-finite coefficient each get their own message
    with pytest.raises(ValueError, match=r"^polynomial target needs at least one coefficient$"):
        polynomial_target([])
    for coeffs in ([1.0, math.nan], [math.inf], [0.0, 2.0, -math.inf]):
        with pytest.raises(ValueError, match=r"^polynomial target coefficients must all be finite$"):
            polynomial_target(coeffs)


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


def test_grid_span_must_not_overflow():
    # past about 8.99e307 the span 2*x0 overflows and linspace gives NaN points
    for x0 in (1e308, 8.99e307, np.finfo(float).max):
        with pytest.raises(ValueError, match=r"^grid span 2\*x0 must not overflow, got x0="):
            make_grid(30, x0)
    with np.errstate(all="raise"):
        grid = make_grid(30, 8.98e307)
    assert (grid.points[0], grid.points[-1]) == (-8.98e307, 8.98e307)
    assert np.isfinite(grid.points).all() and (np.diff(grid.points) > 0).all()


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
        prepared = PreparedIndex.of(values, grid)
        for _ in range(20):
            p = random_params(rng)
            want = performance_index(p, target, grid)
            assert performance_index(p.as_vector(), target, grid) == want
            assert performance_index(p.as_vector(), target, grid, prepared) == want
            # a prepared index takes the raw vector only
            with pytest.raises(ValueError):
                performance_index(p, target, grid, prepared)
        assert values.tobytes() == before
    assert grid.points.tobytes() == points


def test_prepared_index_carries_nothing_from_one_row_to_the_next():
    # one prepared workspace across finite, non-finite and near-overflow
    # rows gives each row's own index and never writes the target values
    # or the grid points
    grid = make_grid(30, 1.5)
    points = grid.points.tobytes()
    target = get_target("sigmoid")
    values = target.fn(grid.points)
    before = values.tobytes()
    prepared = PreparedIndex.of(values, grid)
    with np.errstate(all="ignore"):
        for v in workspace_rows():
            got = performance_index(v, target, grid, prepared)
            want = performance_index(v, target, grid)
            assert got == want or (math.isnan(got) and math.isnan(want)), (v, got, want)
    assert values.tobytes() == before
    assert grid.points.tobytes() == points


def test_every_array_form_on_a_prepared_index_has_the_bytes_of_a_fresh_call():
    # an ndarray of the workspace's shape, of any dtype, goes straight to its
    # bound kernel, which copies it in as np.asarray would convert it: a
    # fresh call's bytes, output and index alike. A list or a CircuitParams
    # is not an array and is rejected, however good its values
    grid = make_grid(30, 1.5)
    target = get_target("gaussian")
    prepared = PreparedIndex.of(target.fn(grid.points), grid)
    ws = prepared.workspace
    v = np.array([0.4, -0.7, 0.5, -1.2, 1.8, -0.3])
    read_only = v.copy()
    read_only.setflags(write=False)
    arrays = [
        v.astype(np.float32),
        np.array([1, -2, 1, 0, -1, 2], dtype=np.int64),
        read_only,
        v,
    ]
    for params in arrays:
        fresh = circuit_expectation_grid(params, grid.points).tobytes()
        assert circuit_expectation_grid(params, ws.xs, ws).tobytes() == fresh
        want = np.float64(performance_index(params, target, grid)).tobytes()
        assert np.float64(performance_index(params, target, grid, prepared)).tobytes() == want
    for params in (v.tolist(), CircuitParams.from_vector(v)):
        with pytest.raises(ValueError):
            circuit_expectation_grid(params, ws.xs, ws)
        with pytest.raises(ValueError):
            performance_index(params, target, grid, prepared)
    assert read_only.tobytes() == v.tobytes()


def test_a_prepared_index_still_rejects_wrong_shapes_and_foreign_inputs():
    grid = make_grid(30, 1.5)
    target = get_target("sigmoid")
    prepared = PreparedIndex.of(target.fn(grid.points), grid)
    ws = prepared.workspace
    for bad in (np.ones(5), np.ones(7), np.ones((6, 2))):
        for extra in ((), (prepared,)):
            with pytest.raises(ValueError):
                performance_index(bad, target, grid, *extra)
        with pytest.raises(ValueError):
            circuit_expectation_grid(bad, ws.xs, ws)
    v = np.ones(6)
    with pytest.raises(ValueError):
        circuit_expectation_grid(v, grid.points.copy(), ws)
    with pytest.raises(ValueError):
        performance_index(v, target, make_grid(30, 1.5), prepared)


def test_a_dropped_workspace_or_prepared_index_is_freed_at_once():
    # the bound kernel holds the buffers, never its workspace: a cycle would
    # keep every dropped workspace alive until the cyclic collector ran
    grid = make_grid(30, 1.5)
    target = get_target("quadratic")
    v = np.array([0.4, -0.7, 0.5, -1.2, 1.8, -0.3])
    enabled = gc.isenabled()
    gc.disable()
    try:
        ws = Workspace((6,), grid.points)
        batch = Workspace((2, 6), grid.points[:, None])
        prepared = PreparedIndex.of(target.fn(grid.points), grid)
        circuit_expectation_grid(v, ws.xs, ws)
        batch.amplitudes(np.stack([v, -v]))
        performance_index(v, target, grid, prepared)
        refs = [weakref.ref(ws), weakref.ref(batch), weakref.ref(prepared), weakref.ref(prepared.workspace)]
        del ws, batch, prepared
        assert [ref() for ref in refs] == [None] * 4
    finally:
        if enabled:
            gc.enable()


@given(st.integers(min_value=2, max_value=60), st.floats(min_value=0.1, max_value=3.0))
def test_error_squared_never_exceeds_index(n, x0):
    params = CircuitParams(0.3, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    grid = make_grid(n, x0)
    target = get_target("sigmoid")
    j = performance_index(params, target, grid)
    eps = max_pointwise_error(params, target, grid)
    assert eps * eps <= j * (1.0 + 1e-12) + 1e-300
    assert j <= n * eps * eps * (1.0 + 1e-12) + 1e-300
