import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubitfit import (
    CircuitParams,
    StateVector,
    circuit_expectation,
    circuit_expectation_grid,
    prepare_state,
)

from conftest import random_params
from oracles import matrix_expectation, per_qubit_grid, product_expectation

angles = st.floats(min_value=-math.pi, max_value=math.pi)
inputs = st.floats(min_value=-4.0, max_value=4.0)
diag_entries = st.floats(min_value=-2.0, max_value=2.0)
diagonals = st.tuples(diag_entries, diag_entries, diag_entries, diag_entries)


def test_state_at_center_is_uniform():
    # x = theta1 = theta2 makes both rotations the identity
    state = prepare_state(CircuitParams(0.0, 0.0, np.zeros(4)), 0.0)
    assert np.allclose(state.amp, np.full(4, 0.5 + 0j), atol=1e-15)


@given(angles, angles, inputs)
def test_state_is_normalized(theta1, theta2, x):
    state = prepare_state(CircuitParams(theta1, theta2, np.ones(4)), x)
    assert abs(state.norm_sq() - 1.0) <= 1e-12


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
    # trailing batch axes, row by row: (6, T) paired with (T,) inputs or
    # with one scalar, and (6, T, 1) against each grid
    rows = np.array(rows)
    xs = rng.uniform(-4.0, 4.0, len(rows))
    x = float(rng.uniform(-4.0, 4.0))
    paired = circuit_expectation_grid(rows.T, xs)
    shared = circuit_expectation_grid(rows.T, x)
    for v, xi, got_paired, got_shared in zip(rows, xs, paired, shared):
        assert got_paired == per_qubit_grid(v[0], v[1], v[2:], xi)
        assert got_shared == per_qubit_grid(v[0], v[1], v[2:], x)
    for grid in grids:
        out = circuit_expectation_grid(rows.T[..., None], grid)
        assert out.shape == (len(rows), len(grid))
        for v, got in zip(rows, out):
            assert np.array_equal(got, per_qubit_grid(v[0], v[1], v[2:], grid))
    with pytest.raises(ValueError):
        circuit_expectation_grid(rows, xs)  # rows, not parameters along axis 0
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
    # places, for one vector and for a (6, T) batch
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
        paired = circuit_expectation_grid(rows.T, xs)
        batched = circuit_expectation_grid(rows.T[..., None], grid)
        for v, x, got_paired, got in zip(rows, xs, paired, batched):
            assert np.array_equal(got_paired, per_qubit_grid(v[0], v[1], v[2:], x), equal_nan=True)
            assert np.array_equal(got, per_qubit_grid(v[0], v[1], v[2:], grid), equal_nan=True)
    assert np.isnan(batched).any() and np.isinf(batched).any() and np.isfinite(batched).any()


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


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0, 0.0, 0.0]))  # norm 2, not 1
    with pytest.raises(ValueError):
        StateVector(np.ones(3) / math.sqrt(3))
