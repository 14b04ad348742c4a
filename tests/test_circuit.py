import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubitfit import (
    CircuitParams,
    circuit_expectation,
    circuit_expectation_grid,
    make_grid,
    prepare_state,
)
from qubitfit.circuit import Workspace

from conftest import random_params, workspace_rows
from oracles import (
    hadamard_rotation_amplitudes,
    matrix_expectation,
    per_qubit_grid,
    per_qubit_state,
    per_qubit_terms,
    product_expectation,
)

angles = st.floats(min_value=-math.pi, max_value=math.pi)
inputs = st.floats(min_value=-4.0, max_value=4.0)
diag_entries = st.floats(min_value=-2.0, max_value=2.0)
diagonals = st.tuples(diag_entries, diag_entries, diag_entries, diag_entries)


def test_state_at_center_is_uniform():
    # x = theta1 = theta2 makes both rotations the identity
    state = prepare_state(CircuitParams(0.0, 0.0, np.zeros(4)), 0.0)
    assert np.allclose(state, np.full(4, 0.5), atol=1e-15)


def test_state_equals_per_qubit_amplitudes():
    # the state comes from the kernel's amplitude step; its four products
    # must carry the per-qubit arithmetic's bits, for one point and a batch
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = random_params(rng)
        x = float(rng.uniform(-4.0, 4.0))
        want = per_qubit_state(p.theta1, p.theta2, x)
        for params in (p, p.as_vector()):
            state = prepare_state(params, x)
            assert state.shape == (4,) and state.dtype == np.float64
            assert state.tobytes() == want.tobytes()


def test_composed_rotation_equals_hadamard_then_rotation():
    # the amplitude step composes H = R(pi/2) into the rotation; its pairs
    # must equal the two-gate form ((c - s), (c + s)) / sqrt(2) to within
    # a few ulps of the angle, however far the offset takes it
    rng = np.random.default_rng(16)
    n = 20000
    xs = rng.uniform(-4.0, 4.0, n)
    # offsets x - theta from about 1e-9 to 1e3 in size, both signs, per slot
    offsets = rng.uniform(-1e3, 1e3, (2, n)) * 10.0 ** rng.uniform(-9.0, 0.0, (2, n))
    rows = np.zeros((n, 6))
    rows[:, :2] = (xs - offsets).T
    p = Workspace(rows.shape[:-1], xs).amplitudes(rows)
    eps = np.finfo(float).eps
    for k, theta in ((0, rows[:, 0]), (1, rows[:, 1])):
        phi = xs - theta
        tol = 8.0 * eps * (1.0 + np.abs(phi))
        for b, want in enumerate(hadamard_rotation_amplitudes(phi)):
            assert (np.abs(p[b, k] - want) <= tol).all()
    assert np.abs(offsets).max() > 900.0


def test_state_batch_equals_per_qubit_amplitudes_on_non_finite_and_huge_rows():
    # raw rows are not validated: infinite offsets give NaN amplitudes in
    # the oracle's places, and the diagonal, NaN or huge, never enters
    inf, nan = math.inf, math.nan
    offsets = (0.3, inf, -inf, 1.7e308, -1e308)
    diagonals = ((0.5, -1.2, 1.8, -0.3), (nan, 1.7e308, -1e308, nan))
    special = np.array([(t1, t2, *g) for t1 in offsets for t2 in offsets for g in diagonals])
    rng = np.random.default_rng(9)
    rows = np.concatenate([special, rng.uniform(-4.0, 4.0, (2000, 6))])
    xs = np.concatenate([np.resize([-1.5, 0.0, 1.5, -1.7e308, 1e308], len(special)),
                         rng.uniform(-4.0, 4.0, 2000)])
    with np.errstate(all="ignore"):
        amp = prepare_state(rows, xs)
        want = per_qubit_state(rows[:, 0], rows[:, 1], xs)
    assert amp.shape == (len(rows), 4) and amp.dtype == np.float64
    assert np.array_equal(amp, want, equal_nan=True)
    assert np.isnan(amp).any() and np.isfinite(amp).all(axis=1).sum() > 2000
    for v, x, got in zip(rows[:40], xs[:40], amp[:40]):
        with np.errstate(all="ignore"):
            assert np.array_equal(got, per_qubit_state(v[0], v[1], x), equal_nan=True)


@given(angles, angles, inputs)
def test_state_is_normalized(theta1, theta2, x):
    state = prepare_state(CircuitParams(theta1, theta2, np.ones(4)), x)
    assert abs(state @ state - 1.0) <= 1e-12


@given(angles, angles, inputs)
def test_uniform_diagonal_gives_unit_output(theta1, theta2, x):
    params = CircuitParams(theta1, theta2, np.ones(4))
    assert math.isclose(circuit_expectation(params, x), 1.0, abs_tol=1e-12)


def test_basis_index_pairs_first_slot_with_theta2():
    # g selects the first qubit's |1> rows (indices 2 and 3), so the output
    # must be the excited-state probability of the x - theta2 rotation.
    theta1, theta2, x = -1.1, 0.4, 1.0
    params = CircuitParams(theta1, theta2, np.array([0.0, 0.0, 1.0, 1.0]))
    expected = (1.0 + math.sin(x - theta2)) / 2.0
    assert math.isclose(circuit_expectation(params, x), expected, abs_tol=1e-12)

    # and the odd indices (1 and 3) select the second qubit, i.e. x - theta1
    params = CircuitParams(theta1, theta2, np.array([0.0, 1.0, 0.0, 1.0]))
    expected = (1.0 + math.sin(x - theta1)) / 2.0
    assert math.isclose(circuit_expectation(params, x), expected, abs_tol=1e-12)


def test_frozen_expectation_values():
    # values derived independently from the probability-product form
    cases = [
        (0.3, -0.7, (0.5, -1.2, 1.8, -0.3), 0.85, 0.20107078229662023),
        (-1.2, 0.4, (2.0, -0.5, 0.25, 1.5), -0.6, 0.1380226734959765),
        (1.373, 1.770, (-0.081, 2.260, 2.272, 4.954), 1.5, 2.170873418006295),
    ]
    for theta1, theta2, g, x, want in cases:
        got = circuit_expectation(CircuitParams(theta1, theta2, np.array(g)), x)
        assert math.isclose(got, want, abs_tol=1e-13)


def test_matches_independent_matrix_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        p = random_params(rng)
        x = float(rng.uniform(-2.0, 2.0))
        got = circuit_expectation(p, x)
        assert math.isclose(got, matrix_expectation(p.theta1, p.theta2, p.g, x), abs_tol=1e-12)
        assert math.isclose(got, product_expectation(p.theta1, p.theta2, p.g, x), abs_tol=1e-12)


def test_grid_route_matches_scalar_route():
    rng = np.random.default_rng(7)
    xs = np.linspace(-2.0, 2.0, 41)
    for _ in range(25):
        p = random_params(rng)
        scalar = np.array([circuit_expectation(p, x) for x in xs])
        assert np.array_equal(circuit_expectation_grid(p, xs), scalar)


def test_stacked_kernel_equals_per_qubit_arithmetic():
    # the kernel stacks both qubits into one pass; that must not move a bit
    # (compared on this machine, not against stored bit patterns)
    rng = np.random.default_rng(11)
    grids = [np.linspace(-1.5, 1.5, n) for n in (2, 30, 200, 4097)]
    rows = []
    for _ in range(200):
        p = random_params(rng)
        v = p.as_vector()
        rows.append(v)
        for xs in grids + [float(rng.uniform(-4.0, 4.0))]:
            want = per_qubit_grid(p.theta1, p.theta2, p.g, xs)
            assert np.array_equal(circuit_expectation_grid(p, xs), want)
            assert np.array_equal(circuit_expectation_grid(v, xs), want)
    # batch axes, row by row: (T, 6) paired with (T,) inputs or with one
    # scalar, and (T, 1, 6) against each grid
    rows = np.array(rows)
    xs = rng.uniform(-4.0, 4.0, len(rows))
    x = float(rng.uniform(-4.0, 4.0))
    paired = circuit_expectation_grid(rows, xs)
    shared = circuit_expectation_grid(rows, x)
    for v, xi, got_paired, got_shared in zip(rows, xs, paired, shared):
        assert got_paired == per_qubit_grid(v[0], v[1], v[2:], xi)
        assert got_shared == per_qubit_grid(v[0], v[1], v[2:], x)
    for grid in grids:
        out = circuit_expectation_grid(rows[:, None, :], grid)
        assert out.shape == (len(rows), len(grid))
        for v, got in zip(rows, out):
            assert np.array_equal(got, per_qubit_grid(v[0], v[1], v[2:], grid))
    with pytest.raises(ValueError):
        circuit_expectation_grid(rows.T, xs)  # parameters along axis 0, not rows
    with pytest.raises(ValueError):
        circuit_expectation(rows[:, :5], xs)


@pytest.mark.parametrize("shape", [(), (30,), (3, 4), (2, 3, 5)])
def test_single_vector_kernel_at_every_input_rank(shape):
    # one parameter vector against inputs of each rank, in C order, Fortran
    # order and with reversed strides: the output has the inputs' shape and
    # the per-qubit arithmetic's bits
    rng = np.random.default_rng(len(shape))
    for _ in range(50):
        p = random_params(rng)
        base = rng.uniform(-4.0, 4.0, shape)
        if shape:
            layouts = [base, np.asfortranarray(base), base[(slice(None, None, -1),) * base.ndim]]
        else:
            layouts = [base, float(base)]
        for xs in layouts:
            want = np.ascontiguousarray(per_qubit_grid(p.theta1, p.theta2, p.g, xs))
            for params in (p, p.as_vector()):
                got = circuit_expectation_grid(params, xs)
                assert got.shape == shape
                assert got.tobytes() == want.tobytes()


def test_kernel_equals_per_qubit_arithmetic_on_non_finite_and_huge_rows():
    # raw rows are not validated: infinite entries, NaN and near-overflow
    # ones must give the per-qubit arithmetic's values, NaN in the same
    # places, for one vector and for a (T, 6) batch
    inf, nan = math.inf, math.nan
    offsets = (0.3, inf, -inf, 1.7e308, -1e308)
    diagonals = (
        (0.5, -1.2, 1.8, -0.3),
        (0.5, nan, 1.8, -0.3),
        (1e308, -1.7e308, 1.7e308, 1e308),
        (nan, 1.7e308, -1e308, 1.7e308),
        (inf, 1.7e308, 1.7e308, 1.7e308),
    )
    rows = np.array([(t1, t2, *g) for t1 in offsets for t2 in offsets for g in diagonals])
    grid = np.array([-1.5, 0.0, 1.5, -1.7e308, 1e308])
    xs = np.resize(grid, len(rows))
    with np.errstate(all="ignore"):
        for v in rows:
            want = per_qubit_grid(v[0], v[1], v[2:], grid)
            assert np.array_equal(circuit_expectation_grid(v, grid), want, equal_nan=True)
        paired = circuit_expectation_grid(rows, xs)
        batched = circuit_expectation_grid(rows[:, None, :], grid)
        for v, x, got_paired, got in zip(rows, xs, paired, batched):
            assert np.array_equal(got_paired, per_qubit_grid(v[0], v[1], v[2:], x), equal_nan=True)
            assert np.array_equal(got, per_qubit_grid(v[0], v[1], v[2:], grid), equal_nan=True)
    assert np.isnan(batched).any() and np.isinf(batched).any() and np.isfinite(batched).any()


def test_a_workspace_carries_nothing_from_one_row_to_the_next():
    # one workspace fed finite, non-finite, near-overflow and finite rows
    # again: each output is the workspace's one output buffer and has the
    # bits of a fresh call, and the per-qubit arithmetic's values, NaN in
    # the same places
    grid = make_grid(30, 1.5)
    ws = Workspace((), grid)
    assert ws.xs is grid
    rows = workspace_rows()
    out = ws.expectation(rows[0])
    with np.errstate(all="ignore"):
        for v in rows:
            got = ws.expectation(v)
            assert got is out
            assert got.tobytes() == circuit_expectation_grid(v, grid).tobytes()
            assert np.array_equal(got, per_qubit_grid(v[0], v[1], v[2:], grid), equal_nan=True)


def test_a_workspace_is_built_for_the_batch_shape_of_its_rows():
    # the first argument is the batch shape B of rows (*B, 6), () for one
    # row; a row width in its place does not broadcast against the grid
    grid = make_grid(30, 1.5)
    for width in (5, 6, 7):
        with pytest.raises(ValueError):
            Workspace((width,), grid)


def test_a_batch_workspace_evaluates_each_row_as_a_fresh_call():
    # the bound kernel checks nothing; its callers check the rows (the
    # index on a target-bound workspace: tests/test_objective.py)
    grid = make_grid(30, 1.5)
    v = np.array([0.4, -0.7, 0.5, -1.2, 1.8, -0.3])
    batch = Workspace((2,), grid[:, None])
    got = batch.expectation(np.stack([v, -v]))
    assert got.shape == (30, 2)
    assert got[:, 0].tobytes() == circuit_expectation_grid(v, grid).tobytes()
    assert got[:, 1].tobytes() == circuit_expectation_grid(-v, grid).tobytes()
    assert batch.expectation(np.stack([-v, v])) is got  # the workspace's one output buffer
    # given target values, a fifth term -values: each row's output - values is
    # -(values - output) bit for bit, over a grid and at one input
    values = np.square(grid)
    residual = Workspace((2, 1), grid, values).expectation(np.stack([v, -v])[:, None, :])
    for row, got in zip((v, -v), residual):
        assert got.tobytes() == (-(values - circuit_expectation_grid(row, grid))).tobytes()
    got = Workspace((), 0.7, 0.49).expectation(v)
    assert got.tobytes() == np.float64(-(0.49 - circuit_expectation(v, 0.7))).tobytes()


def test_the_four_terms_are_summed_in_index_order():
    # on these rows ((t00 + t01) + t10) + t11 and t00 + ((t01 + t10) + t11)
    # differ, so only the kernel's order gives the oracle's bits: at a
    # scalar input (one row, the sum's only axis), over a grid and over a
    # (T, 1, 6) batch
    rng = np.random.default_rng(20)
    grid = make_grid(30, 1.5)
    rows = np.concatenate([rng.uniform(-np.pi, np.pi, (500, 2)), rng.uniform(-2.0, 2.0, (500, 4))], axis=1)
    t = per_qubit_terms(rows[:, :1], rows[:, 1:2], rows[:, 2:, None].transpose(1, 0, 2), grid)
    split = ((t[0] + t[1]) + t[2]) + t[3] != t[0] + ((t[1] + t[2]) + t[3])
    keep = split.any(axis=1)
    rows, split = rows[keep], split[keep]
    assert len(rows) >= 100
    # four -0.0 terms sum to -0.0 in either order; a sum started at +0.0 gives +0.0
    rows = np.concatenate([rows, [[0.4, -0.7, -0.0, -0.0, -0.0, -0.0]]])
    split = np.concatenate([split, np.ones((1, len(grid)), bool)])
    batch = circuit_expectation_grid(rows[:, None, :], grid)
    for v, where, got in zip(rows, split, batch):
        want = per_qubit_grid(v[0], v[1], v[2:], grid)
        assert got.tobytes() == want.tobytes()
        assert circuit_expectation_grid(v, grid).tobytes() == want.tobytes()
        x = grid[np.argmax(where)]
        assert np.float64(circuit_expectation(v, x)).tobytes() == want[np.argmax(where)].tobytes()
    assert np.signbit(batch[-1]).all()


@given(angles, angles, diagonals, inputs)
def test_output_stays_within_diagonal_range(theta1, theta2, g, x):
    value = circuit_expectation(CircuitParams(theta1, theta2, np.array(g)), x)
    assert min(g) - 1e-12 <= value <= max(g) + 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        CircuitParams(math.nan, 0.0, np.ones(4))
    with pytest.raises(ValueError):
        CircuitParams(0.0, math.inf, np.ones(4))
    with pytest.raises(ValueError):
        CircuitParams(0.0, 0.0, np.ones(3))
    with pytest.raises(ValueError):
        CircuitParams(0.0, 0.0, np.array([1.0, 2.0, math.nan, 4.0]))


def test_params_diagonal_is_read_only():
    params = CircuitParams(0.1, 0.2, np.arange(4.0))
    with pytest.raises(ValueError):
        params.g[0] = 99.0


def test_params_vector_round_trip():
    v = np.array([0.4, -0.7, 0.5, -1.2, 1.8, -0.3])
    assert np.array_equal(CircuitParams.from_vector(v).as_vector(), v)
    with pytest.raises(ValueError):
        CircuitParams.from_vector(np.ones(5))
