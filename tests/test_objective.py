import gc
import math
import re
import weakref
from fractions import Fraction

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
from qubitfit.chemotaxis import OptimizerConfig, optimize
from qubitfit.circuit import Workspace
from qubitfit.cli import build_parser
from qubitfit.objective import TARGET_IDS

from conftest import random_params, workspace_rows
from oracles import sum_of_squares_index


def test_builtin_target_values():
    assert get_target("quadratic").fn(1.5) == 2.25
    assert get_target("gaussian").fn(0.0) == 1.0
    assert math.isclose(get_target("gaussian").fn(1.0), math.exp(-1.0), rel_tol=1e-15)
    assert math.isclose(get_target("sigmoid").fn(0.7), math.tanh(0.7), rel_tol=1e-15)


def test_targets_vectorize():
    xs = np.linspace(-1.5, 1.5, 7)
    out = get_target("sigmoid").fn(xs)
    assert out.shape == xs.shape
    assert np.allclose(out, np.tanh(xs), atol=0)


def test_get_target_rejects_unknown_id():
    with pytest.raises(ValueError):
        get_target("cubic")


def test_target_ids_are_the_builtins_then_custom():
    # each name is written once, in the builtin table; the tuple, its order
    # and the CLI's --target choices follow from it
    assert TARGET_IDS == ("quadratic", "gaussian", "sigmoid", "custom")
    assert [get_target(t).id for t in TARGET_IDS[:-1]] == list(TARGET_IDS[:-1])
    with pytest.raises(ValueError, match=r"expected one of \('quadratic', 'gaussian', 'sigmoid', 'custom'\)$"):
        get_target("cubic")
    parser = build_parser()
    for argv in (["fit"], ["eval", "p.params"]):
        assert [parser.parse_args([*argv, "--target", t]).target for t in TARGET_IDS] == list(TARGET_IDS)
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, "--target", "cubic"])


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
    assert np.allclose(custom.fn(xs), np.square(xs), atol=0)
    affine = polynomial_target([2.0, -3.0])
    assert affine.fn(0.5) == 0.5


def test_grid_is_uniform_and_inclusive():
    grid = make_grid(30, 1.5)
    assert grid.dtype == np.float64 and grid.shape == (30,)
    assert grid[0] == -1.5
    assert grid[-1] == 1.5
    assert np.allclose(np.diff(grid), 3.0 / 29.0, atol=1e-15)

    tiny = make_grid(2, 0.5)
    assert np.array_equal(tiny, np.array([-0.5, 0.5]))


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(1, 1.5)
    with pytest.raises(ValueError):
        make_grid(30, 0.0)
    with pytest.raises(ValueError):
        make_grid(30, -1.0)
    with pytest.raises(ValueError):
        make_grid(30, math.inf)
    # a non-number half-width, or a real one whose float is not positive and
    # finite, is rejected by name, not passed on to math or linspace
    for x0 in ("1.5", None, 1 + 0j, 10**400, Fraction(10**400), np.longdouble("1e-4000")):
        with pytest.raises(ValueError, match=r"^grid half-width must be positive and finite, got x0="):
            make_grid(30, x0)
    # a float point count is rejected by name, not passed on to linspace
    for n in (30.0, 2.5, "30", None):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
            make_grid(n, 1.5)
    grid = make_grid(np.int64(30), 1.5)
    assert grid.tobytes() == make_grid(30, 1.5).tobytes()


@pytest.mark.parametrize(
    "x0", [2, np.float16(1.1), np.float32(1.1), np.longdouble("1.1"), Fraction(11, 10)], ids=repr,
)
def test_a_real_half_width_of_any_type_gives_the_grid_of_its_float(x0):
    # linspace would build points of x0's own type, which no workspace shares
    grid = make_grid(30, x0)
    assert grid.dtype == np.float64 and not grid.flags.writeable
    assert (grid[0], grid[-1]) == (-float(x0), float(x0))
    same = make_grid(30, float(x0))
    assert grid.tobytes() == same.tobytes()
    target = get_target("gaussian")
    v = np.array([0.4, -0.7, 0.5, -1.2, 1.8, -0.3])
    assert performance_index(v, target, grid) == performance_index(v, target, same)
    cfg = OptimizerConfig(iterations=5, restarts=2, seed=3)
    fit, want = optimize(target, grid, cfg), optimize(target, same, cfg)
    assert fit == want and fit.best.as_vector().tobytes() == want.best.as_vector().tobytes()


def test_the_same_points_in_any_array_like_are_the_same_grid():
    # optimize and the index without a workspace take np.asarray(grid, dtype=float)
    grid = make_grid(30, 1.5)
    target = get_target("sigmoid")
    params = CircuitParams(0.4, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    cfg = OptimizerConfig(iterations=5, restarts=2, seed=3)

    def outcome(g):
        fit = optimize(target, g, cfg)
        return (performance_index(params, target, g), max_pointwise_error(params, target, g),
                fit, fit.best.as_vector().tobytes())

    want = outcome(grid)
    for other in (grid.tolist(), tuple(grid), grid.copy()):
        assert outcome(other) == want


def test_grid_span_must_not_overflow():
    # past about 8.99e307 the span 2*x0 overflows and linspace gives NaN points
    for x0 in (1e308, 8.99e307, np.finfo(float).max):
        with pytest.raises(ValueError, match=r"^grid span 2\*x0 must not overflow, got x0="):
            make_grid(30, x0)
    with np.errstate(all="raise"):
        grid = make_grid(30, 8.98e307)
    assert (grid[0], grid[-1]) == (-8.98e307, 8.98e307)
    assert np.isfinite(grid).all() and (np.diff(grid) > 0).all()


def test_grid_points_are_read_only():
    grid = make_grid(5, 1.0)
    with pytest.raises(ValueError):
        grid[0] = 0.0


def test_index_against_hand_computed_sum():
    # g = (1,1,1,1) forces the circuit output to 1 everywhere, so the
    # index reduces to sum (e^{-x^2} - 1)^2 over the grid
    params = CircuitParams(0.8, -0.4, np.ones(4))
    grid = make_grid(30, 1.5)
    expected = sum(
        (math.exp(-x * x) - 1.0) ** 2 for x in grid
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
        assert math.isclose(got, sum_of_squares_index(params, target.fn, grid), rel_tol=1e-12)


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
    points = grid.tobytes()
    for target in (get_target("gaussian"), get_target("sigmoid"), polynomial_target([1, -2, 0.5])):
        values = target.fn(grid)
        values.setflags(write=False)
        before = values.tobytes()
        workspace = Workspace((), grid, values)
        for _ in range(20):
            p = random_params(rng)
            want = performance_index(p, target, grid)
            assert performance_index(p.as_vector(), target, grid) == want
            assert performance_index(p.as_vector(), target, grid, workspace) == want
            # with a workspace, the index takes the raw vector only
            with pytest.raises(ValueError):
                performance_index(p, target, grid, workspace)
        assert values.tobytes() == before
    assert grid.tobytes() == points


def test_a_target_bound_workspace_carries_nothing_from_one_row_to_the_next():
    # one target-bound workspace across finite, non-finite and near-overflow
    # rows gives each row's own index and never writes the target values
    # or the grid points
    grid = make_grid(30, 1.5)
    points = grid.tobytes()
    target = get_target("sigmoid")
    values = target.fn(grid)
    before = values.tobytes()
    workspace = Workspace((), grid, values)
    with np.errstate(all="ignore"):
        for v in workspace_rows():
            got = performance_index(v, target, grid, workspace)
            want = performance_index(v, target, grid)
            assert got == want or (math.isnan(got) and math.isnan(want)), (v, got, want)
    assert values.tobytes() == before
    assert grid.tobytes() == points


def test_the_index_has_the_bytes_of_the_residual_sum_of_squares():
    # the byte-level oracle for J, built outside the index: r = values - output
    # from a fresh kernel call, then float(r.dot(r)). Workspace.index may form
    # and sum the residual in any way that gives the same bytes, with or
    # without a target-bound workspace. A NaN may differ in its sign bit, which no caller reads: the
    # optimizer rejects a NaN index, so no trace stores one
    grid = make_grid(30, 1.5)
    rng = np.random.default_rng(22)
    rows = np.concatenate([
        workspace_rows(),
        np.concatenate([rng.uniform(-10.0, 10.0, (20000, 2)), rng.uniform(-8.0, 8.0, (20000, 4))], axis=1),
    ])
    targets = [get_target(t) for t in ("quadratic", "gaussian", "sigmoid")]
    targets.append(polynomial_target([0.5, -1.0, 0.25, 0.3]))
    with np.errstate(all="ignore"):
        outputs = [circuit_expectation_grid(v, grid) for v in rows]
        for target in targets:
            values = target.fn(grid)
            workspace = Workspace((), grid, values)
            for v, out in zip(rows, outputs):
                r = values - out
                want = np.float64(r.dot(r)).tobytes()
                for got in (performance_index(v, target, grid), performance_index(v, target, grid, workspace)):
                    assert np.float64(got).tobytes() == want or (math.isnan(got) and np.isnan(r.dot(r))), (
                        target.id, v, got, r.dot(r),
                    )


@pytest.mark.parametrize("n, x0", [(30, 1.5), (7, 0.5), (57, 2.5)])
@pytest.mark.parametrize("target_id", [t for t in TARGET_IDS if t != "custom"])
def test_a_batch_index_has_the_bytes_of_each_row_on_its_own_workspace(target_id, n, x0):
    # Workspace.index over rows (m, 1, 6) sums the grid axis: one J per row,
    # each the bytes of the one-row index, a non-finite row spoiling only its
    # own slot, and without values the sum of the squared outputs
    grid = make_grid(n, x0)
    target = get_target(target_id)
    values = target.fn(grid)
    one = Workspace((), grid, values)
    rng = np.random.default_rng(n)
    nonfinite = workspace_rows()[2:8]
    for m in (1, 2, 8, 33):
        rows = np.concatenate([rng.uniform(-np.pi, np.pi, (m, 1, 2)), rng.uniform(-2.0, 2.0, (m, 1, 4))], axis=-1)
        want = [np.float64(performance_index(row, target, grid, one)).tobytes() for row in rows[:, 0]]
        batch = Workspace((m, 1), grid, values)
        got = batch.index(rows)
        assert got.shape == (m,)
        assert [np.float64(j).tobytes() for j in got] == want
        for bad in nonfinite:
            k = int(rng.integers(m))
            spoiled = rows.copy()
            spoiled[k, 0] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                got = batch.index(spoiled)
            assert not np.isfinite(got[k])
            assert [np.float64(j).tobytes() for i, j in enumerate(got) if i != k] == want[:k] + want[k + 1:]
        outputs = [circuit_expectation_grid(row, grid) for row in rows[:, 0]]
        got = Workspace((m, 1), grid).index(rows)
        assert [np.float64(j).tobytes() for j in got] == [np.float64(o.dot(o)).tobytes() for o in outputs]


@pytest.mark.parametrize("grid", [np.ones((3, 3)), np.ones((1, 3)), [[0.0], [1.0]], np.array(1.0), 0.5, np.empty(0), []])
def test_a_grid_must_be_one_axis_of_at_least_one_point(grid):
    # optimize, the index and the worst error all take grid points of shape
    # (N,), N >= 1; any other shape is rejected by name, not by numpy, also
    # by the index of a caller's workspace over those points
    params = CircuitParams(0.4, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    cfg = OptimizerConfig(iterations=2, restarts=1, seed=0)
    message = "^grid must be a 1-D array of at least one point, got shape " + re.escape(str(np.shape(grid))) + "$"
    for target in (get_target("quadratic"), polynomial_target([1e200, 0.0, 1e200])):
        ws = Workspace((), grid, target.fn(np.asarray(grid, dtype=float)))
        for call in (
            lambda: performance_index(params, target, grid),
            lambda: performance_index(params.as_vector(), target, grid),
            lambda: performance_index(params.as_vector(), target, ws.xs, ws),
            lambda: max_pointwise_error(params, target, grid),
            lambda: optimize(target, grid, cfg),
        ):
            with pytest.raises(ValueError, match=message):
                call()


def test_a_one_point_grid_is_a_grid():
    params = CircuitParams(0.4, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    target = get_target("sigmoid")
    r = target.fn(0.5) - circuit_expectation_grid(params, 0.5)
    assert performance_index(params, target, [0.5]) == r * r
    assert max_pointwise_error(params, target, np.array([0.5])) == abs(r)
    assert optimize(target, [0.5], OptimizerConfig(iterations=3, restarts=1, seed=0)).evals == 4


def test_every_array_form_on_a_target_bound_workspace_has_the_bytes_of_a_fresh_call():
    # an ndarray of shape (6,), of any dtype, goes straight to the
    # workspace's bound kernel, which copies it in as np.asarray would
    # convert it: a fresh call's bytes. A list or a CircuitParams is not an
    # array and is rejected, however good its values
    grid = make_grid(30, 1.5)
    target = get_target("gaussian")
    workspace = Workspace((), grid, target.fn(grid))
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
        want = np.float64(performance_index(params, target, grid)).tobytes()
        r = workspace.expectation(params)
        assert np.float64(r.dot(r)).tobytes() == want
        assert np.float64(performance_index(params, target, grid, workspace)).tobytes() == want
    for params in (v.tolist(), CircuitParams.from_vector(v)):
        with pytest.raises(ValueError):
            performance_index(params, target, grid, workspace)
    assert read_only.tobytes() == v.tobytes()


def test_the_index_on_a_workspace_still_rejects_wrong_shapes_and_foreign_inputs():
    # its one check stands before the bound kernel, which checks nothing
    grid = make_grid(30, 1.5)
    target = get_target("sigmoid")
    workspace = Workspace((), grid, target.fn(grid))
    v = np.ones(6)
    for bad in (np.ones(5), np.ones(7), np.ones((6, 2)), np.ones((2, 6)), np.ones((1, 6))):
        for extra in ((), (workspace,)):
            with pytest.raises(ValueError):
                performance_index(bad, target, grid, *extra)
    for bad in (v.tolist(), CircuitParams.from_vector(v)):
        with pytest.raises(ValueError):
            performance_index(bad, target, grid, workspace)
    foreign = (make_grid(30, 1.5), grid.copy())
    for other in foreign:
        with pytest.raises(ValueError):
            performance_index(v, target, other, workspace)


def test_a_dropped_workspace_is_freed_at_once():
    # the bound kernel holds the buffers, never its workspace: a cycle would
    # keep every dropped workspace alive until the cyclic collector ran
    grid = make_grid(30, 1.5)
    target = get_target("quadratic")
    v = np.array([0.4, -0.7, 0.5, -1.2, 1.8, -0.3])
    enabled = gc.isenabled()
    gc.disable()
    try:
        ws = Workspace((), grid)
        batch = Workspace((2,), grid[:, None])
        bound = Workspace((), grid, target.fn(grid))
        ws.expectation(v)
        batch.amplitudes(np.stack([v, -v]))
        performance_index(v, target, grid, bound)
        refs = [weakref.ref(ws), weakref.ref(batch), weakref.ref(bound)]
        del ws, batch, bound
        assert [ref() for ref in refs] == [None] * 3
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
