"""Independent reference implementations used only by the tests.

Everything here is deliberately written from scratch (explicit matrices,
index arithmetic, finite-difference stencils) rather than calling back
into qubitfit, so agreement is evidence and not tautology.
"""

from __future__ import annotations

import math

import numpy as np

SQRT1_2 = 1.0 / math.sqrt(2.0)

# O(h^4) central stencils for derivatives 0..3 at the origin.
# Offsets are in units of h; coefficients get divided by h**order.
_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12)),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12)),
    3: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8)),
}


def fd_derivative(fn, order: int, h: float = 1e-3) -> float:
    offsets, coeffs = _STENCILS[order]
    return sum(c * fn(k * h) for k, c in zip(offsets, coeffs)) / h**order


def fd_maclaurin(fn, degree: int = 3, h: float = 1e-3) -> np.ndarray:
    """Maclaurin coefficients a_k = f^(k)(0) / k! from central differences."""
    return np.array([fd_derivative(fn, k, h) / math.factorial(k) for k in range(degree + 1)])


def rot(phi: float) -> np.ndarray:
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    return np.array([[c, -s], [s, c]])


def product_expectation(theta1, theta2, g, x) -> float:
    """Expectation via explicit per-qubit vectors and index arithmetic.

    Basis index b = 2*b_first + b_second; the first tensor slot carries
    the rotation by x - theta2.
    """
    plus = np.array([SQRT1_2, SQRT1_2])
    first = rot(x - theta2) @ plus
    second = rot(x - theta1) @ plus
    total = 0.0
    for b in range(4):
        amp = first[b >> 1] * second[b & 1]
        total += g[b] * amp * amp
    return total


def matrix_expectation(theta1, theta2, g, x) -> float:
    """Expectation via the full 4x4 operator route: <psi| diag(g) |psi>."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) * SQRT1_2
    e00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    psi = np.kron(rot(x - theta2), rot(x - theta1)) @ (np.kron(hadamard, hadamard) @ e00)
    return float(np.real(np.vdot(psi, np.diag(np.asarray(g, dtype=float)) @ psi)))


def amplitude_quadratic_coefficients(theta1, theta2) -> np.ndarray:
    """Degree-2 Maclaurin coefficients of each of the 4 amplitudes, shape (4, 3).

    Each single-qubit factor amplitude is cos or sin of (x/2 + pi/4 - theta/2),
    so its series in x follows from half-angle derivatives; the register
    amplitude is the product of its two factors truncated at degree 2. This
    is the quadratic structure of the amplitudes that makes the expectation
    cubic after truncation.
    """
    def factor_series(theta: float) -> np.ndarray:
        a = math.pi / 4.0 - 0.5 * theta
        sa, ca = math.sin(a), math.cos(a)
        # rows: amplitude of outcome 0 = cos(x/2 + a), outcome 1 = sin(x/2 + a)
        return np.array([
            [ca, -0.5 * sa, -0.125 * ca],
            [sa, 0.5 * ca, -0.125 * sa],
        ])

    first = factor_series(theta2)
    second = factor_series(theta1)
    out = np.empty((4, 3))
    for b_first in range(2):
        for b_second in range(2):
            p, q = first[b_first], second[b_second]
            out[2 * b_first + b_second] = [
                p[0] * q[0],
                p[0] * q[1] + p[1] * q[0],
                p[0] * q[2] + p[1] * q[1] + p[2] * q[0],
            ]
    return out


def per_qubit_grid(theta1, theta2, g, xs):
    """Circuit output over ``xs`` with each qubit computed on its own.

    Two separate amplitude pairs ((c - s), (c + s)) / sqrt(2), four
    squares, and the four terms (g_b * p_first) * p_second summed in
    index order: the same floating-point operations as the simulator
    kernel, one qubit at a time, so the two agree bit for bit.
    """
    xs = np.asarray(xs, dtype=float)

    def amplitudes(phi):
        half = 0.5 * phi
        c, s = np.cos(half), np.sin(half)
        return (c - s) * SQRT1_2, (c + s) * SQRT1_2

    a_second0, a_second1 = amplitudes(xs - theta1)
    a_first0, a_first1 = amplitudes(xs - theta2)
    p_second0, p_second1 = np.square(a_second0), np.square(a_second1)
    p_first0, p_first1 = np.square(a_first0), np.square(a_first1)
    return (
        g[0] * p_first0 * p_second0
        + g[1] * p_first0 * p_second1
        + g[2] * p_first1 * p_second0
        + g[3] * p_first1 * p_second1
    )


def sum_of_squares_index(params, target_fn, xs) -> float:
    """Brute-force J: plain python loop over the grid."""
    total = 0.0
    for x in xs:
        r = target_fn(x) - product_expectation(params.theta1, params.theta2, params.g, x)
        total += r * r
    return total


def uniform_vector(rng: np.random.Generator) -> np.ndarray:
    """[theta1, theta2, g0..g3] drawn with Generator.uniform, one call per range."""
    theta = rng.uniform(-math.pi, math.pi, 2)
    g = rng.uniform(-2.0, 2.0, 4)
    return np.concatenate([theta, g])


def uniform_draw(rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """(parameter vector, input x) of one verify draw, made with Generator.uniform."""
    v = uniform_vector(rng)
    return v, rng.uniform(-math.pi, math.pi)


def chemotaxis_restart(index, start, rng, iterations, sigma0, sigma_shrink, fail_streak):
    """One optimizer restart as a plain loop: (point, value, trace, evals).

    Every fresh proposal is its own ``rng.normal(0.0, sigma, 6)`` call; an
    accepted step is replayed until it stops improving, and ``fail_streak``
    rejections in a row shrink ``sigma``. ``index`` maps a raw 6-vector to
    the performance index.
    """
    point = np.asarray(start, dtype=float)
    current = index(point)
    evals = 1
    trace = [(0, current)]
    sigma, fails, run_direction = sigma0, 0, None
    for it in range(1, iterations + 1):
        step = run_direction if run_direction is not None else rng.normal(0.0, sigma, 6)
        candidate = point + step
        value = index(candidate)
        evals += 1
        if math.isfinite(value) and value < current:
            point, current, run_direction, fails = candidate, value, step, 0
            trace.append((it, current))
        else:
            run_direction = None
            fails += 1
            if fails >= fail_streak:
                sigma *= sigma_shrink
                fails = 0
    return point, current, trace, evals
