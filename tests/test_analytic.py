import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubitfit import (
    CircuitParams,
    CubicPoly,
    StateVector,
    circuit_expectation,
    circuit_expectation_grid,
    closed_form_expectation,
    cubic_coefficients,
    cubic_remainder,
    prepare_state,
)
from qubitfit.analytic import _trig_coefficients

from conftest import random_params
from oracles import amplitude_quadratic_coefficients, fd_maclaurin, trig_evaluate, trig_form

angles = st.floats(min_value=-math.pi, max_value=math.pi)
inputs = st.floats(min_value=-4.0, max_value=4.0)
diag_entries = st.floats(min_value=-2.0, max_value=2.0)
diagonals = st.tuples(diag_entries, diag_entries, diag_entries, diag_entries)
# finite, and small enough that x - theta stays finite
finite = st.floats(min_value=-1e300, max_value=1e300)
points = st.lists(st.tuples(st.tuples(*[finite] * 6), finite), min_size=1, max_size=8)


@given(angles, diagonals)
def test_center_value_is_diagonal_mean(theta, g):
    # x = theta1 = theta2 puts both qubits at probability 1/2
    params = CircuitParams(theta, theta, np.array(g))
    assert math.isclose(closed_form_expectation(params, theta), sum(g) / 4.0, abs_tol=1e-12)


def test_quarter_turn_selects_last_entry():
    # x - theta = pi/2 on both qubits concentrates all weight on index 3
    g = np.array([0.5, -1.2, 1.8, -0.3])
    params = CircuitParams(0.3, 0.3, g)
    assert math.isclose(closed_form_expectation(params, 0.3 + math.pi / 2), g[3], abs_tol=1e-12)


@given(angles, angles, diagonals, inputs)
def test_closed_form_agrees_with_simulator(theta1, theta2, g, x):
    params = CircuitParams(theta1, theta2, np.array(g))
    assert math.isclose(
        closed_form_expectation(params, x), circuit_expectation(params, x), abs_tol=1e-12
    )


def test_closed_form_accepts_arrays():
    params = CircuitParams(0.3, -0.7, np.array([0.5, -1.2, 1.8, -0.3]))
    xs = np.linspace(-1.5, 1.5, 9)
    out = closed_form_expectation(params, xs)
    assert out.shape == xs.shape
    assert np.allclose(out, [closed_form_expectation(params, x) for x in xs], atol=1e-15)
    assert isinstance(closed_form_expectation(params, 0.5), float)


def test_trig_coefficients_frozen_example():
    # the oracle's regrouping and the one cubic_coefficients uses
    tf = trig_form(np.array([1.0, 2.0, 3.0, 4.0]))
    assert (tf.c0, tf.c1, tf.c2, tf.c3) == (2.5, 0.5, 1.0, 0.0)
    assert _trig_coefficients(1.0, 2.0, 3.0, 4.0) == (2.5, 0.5, 1.0, 0.0)


@given(angles, angles, diagonals, inputs)
def test_trig_form_reconstructs_output(theta1, theta2, g, x):
    params = CircuitParams(theta1, theta2, np.array(g))
    got = trig_evaluate(trig_form(params.g), theta1, theta2, x)
    assert math.isclose(got, closed_form_expectation(params, x), abs_tol=1e-12)


def test_cubic_poly_evaluates_by_horner():
    poly = CubicPoly(1.0, 2.0, 3.0, 4.0)
    assert math.isclose(poly(0.5), 1.0 + 1.0 + 0.75 + 0.5, rel_tol=1e-15)
    xs = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(poly(xs), [-2.0, 1.0, 49.0], atol=1e-12)


def test_cubic_of_uniform_diagonal_is_constant_one():
    poly = cubic_coefficients(CircuitParams(0.9, -2.2, np.ones(4)))
    assert np.array_equal(poly.as_array(), np.array([1.0, 0.0, 0.0, 0.0]))


def test_cubic_sin_square_example():
    # theta = 0, g = (0,0,0,4): output is (1 + sin x)^2, whose cubic
    # truncation is 1 + 2x + x^2 - x^3/3
    poly = cubic_coefficients(CircuitParams(0.0, 0.0, np.array([0.0, 0.0, 0.0, 4.0])))
    assert np.allclose(poly.as_array(), [1.0, 2.0, 1.0, -1.0 / 3.0], atol=1e-15)


def test_cubic_frozen_values():
    # high-precision Taylor coefficients computed independently (40-digit
    # arithmetic on the probability-product form)
    cases = [
        (
            (0.3, -0.7, (0.5, -1.2, 1.8, -0.3)),
            (0.85410185871574, -0.5258482958937222, -0.4096380615547898, 0.10711229976438622),
        ),
        (
            (1.373, 1.770, (-0.081, 2.260, 2.272, 4.954)),
            (-0.03487881235989517, -0.002799928620040846, 1.1487818919951684, 0.0004066666490740669),
        ),
    ]
    for (theta1, theta2, g), want in cases:
        poly = cubic_coefficients(CircuitParams(theta1, theta2, np.array(g)))
        assert np.allclose(poly.as_array(), want, atol=1e-13)


def test_cubic_matches_finite_differences():
    rng = np.random.default_rng(321)
    for _ in range(100):
        params = random_params(rng)
        fd = fd_maclaurin(lambda xx: closed_form_expectation(params, xx), degree=3, h=1e-3)
        got = cubic_coefficients(params).as_array()
        assert np.all(np.abs(got - fd) <= 1e-6 * np.maximum(1.0, np.abs(got)))


def test_remainder_matches_direct_recomputation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        params = random_params(rng)
        x = float(rng.uniform(-1.0, 1.0))
        direct = abs(closed_form_expectation(params, x) - cubic_coefficients(params)(x))
        assert math.isclose(cubic_remainder(params, x), direct, abs_tol=1e-15)


def test_remainder_scales_as_fourth_power():
    # halving x should divide the truncation error by about 2^4 = 16;
    # draws whose quartic coefficient nearly vanishes carry no signal
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(100):
        params = random_params(rng)
        small = cubic_remainder(params, 1e-2)
        big = cubic_remainder(params, 2e-2)
        if min(small, big) < 1e-10:
            continue
        assert 4.0 <= big / small <= 64.0
        checked += 1
    assert checked >= 80


def test_amplitude_series_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(25):
        params = random_params(rng)
        coeffs = amplitude_quadratic_coefficients(params.theta1, params.theta2)
        assert coeffs.shape == (4, 3)
        for b in range(4):
            fd = fd_maclaurin(
                lambda xx, b=b: float(prepare_state(params, xx).amp[b].real), degree=2, h=1e-3
            )
            assert np.all(np.abs(coeffs[b] - fd) <= 1e-6 * np.maximum(1.0, np.abs(coeffs[b])))


def test_amplitude_truncation_scales_as_cube():
    # quadratic amplitude series has an O(x^3) error: ratio near 2^3 = 8
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(100):
        params = random_params(rng)
        coeffs = amplitude_quadratic_coefficients(params.theta1, params.theta2)
        for b in range(4):
            quad = np.polynomial.polynomial.Polynomial(coeffs[b])
            err = lambda xx: abs(float(prepare_state(params, xx).amp[b].real) - quad(xx))
            small, big = err(1e-2), err(2e-2)
            if min(small, big) < 1e-9:
                continue
            assert 2.0 <= big / small <= 32.0
            checked += 1
    assert checked >= 350


def _batch_outputs(rows, x) -> dict:
    # every function that takes a batch of rows, on one batch
    return {
        "sim": circuit_expectation(rows, x),
        "grid": circuit_expectation_grid(rows, x),
        "closed": closed_form_expectation(rows, x),
        "coeffs": cubic_coefficients(rows),
        "remainder": cubic_remainder(rows, x),
        "amp": prepare_state(rows, x),
    }


def _single_point_outputs(v, x) -> dict:
    # the same functions on one row at one input, which keep the scalar types
    one = _batch_outputs(v, x)
    assert type(one["sim"]) is float and type(one["closed"]) is float
    assert type(one["remainder"]) is float and type(one["grid"]) is np.float64
    assert isinstance(one["coeffs"], CubicPoly) and type(one["coeffs"].a0) is float
    assert isinstance(one["amp"], StateVector)
    one["coeffs"], one["amp"] = one["coeffs"].as_array(), one["amp"].amp
    return one


@given(points)
def test_batched_rows_equal_single_point_calls(points):
    # each row of a batch must equal the single-point call bit for bit, in
    # every batch shape: (T, 6) paired with the (T,) inputs, (T, 1, 6)
    # against all of them as a (T, T) table, and (2, 3, 6) paired with
    # (2, 3) inputs; huge entries overflow to inf or nan the same way on
    # every route
    rows = np.array([row for row, _ in points])
    xs = np.array([x for _, x in points])
    t = len(rows)
    ts = np.arange(t)
    six = np.resize(ts, 6).reshape(2, 3)
    # (batch rows, batch inputs, and the row and input index of each output)
    cases = [
        (rows, xs, ts, ts),
        (rows[:, None, :], xs, *np.broadcast_arrays(ts[:, None], ts)),
        (rows[six], xs[six], six, six),
    ]
    with np.errstate(all="ignore"):
        one = [[_single_point_outputs(rows[i], x) for _, x in points] for i in range(t)]
        for batch_rows, batch_xs, row_of, x_of in cases:
            got = _batch_outputs(batch_rows, batch_xs)
            shape = row_of.shape
            assert got["coeffs"].shape == batch_rows.shape[:-1] + (4,)
            assert got["amp"].shape == shape + (4,)
            assert all(got[name].shape == shape for name in ("sim", "grid", "closed", "remainder"))
            got["coeffs"] = np.broadcast_to(got["coeffs"], shape + (4,))
            for index in np.ndindex(shape):
                want = one[row_of[index]][x_of[index]]
                for name, value in got.items():
                    assert np.array_equal(value[index], want[name], equal_nan=True), (name, index)


def test_a_batch_is_read_as_rows_whatever_its_shape():
    # a (6, 6) array is six rows, not parameters along axis 0; a (6, T)
    # array with T != 6 is rejected with its shape named; a (0, 6) batch
    # gives empty outputs
    rng = np.random.default_rng(17)
    rows = rng.uniform(-2.0, 2.0, (6, 6))
    xs = rng.uniform(-1.5, 1.5, 6)
    got = _batch_outputs(rows, xs)
    for i, x in enumerate(xs.tolist()):
        for name, want in _single_point_outputs(rows[i], x).items():
            assert np.array_equal(got[name][i], want), (name, i)
    with pytest.raises(ValueError, match=r"got shape \(6, 5\)"):
        cubic_coefficients(rows[:, :5])
    for f in (circuit_expectation, circuit_expectation_grid, closed_form_expectation,
              cubic_remainder, prepare_state):
        with pytest.raises(ValueError, match=r"got shape \(6, 5\)"):
            f(rows[:, :5], xs[:5])
    empty = _batch_outputs(np.empty((0, 6)), np.empty(0))
    assert empty["coeffs"].shape == empty["amp"].shape == (0, 4)
    assert all(empty[name].shape == (0,) for name in ("sim", "grid", "closed", "remainder"))
