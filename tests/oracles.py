"""Independent reference implementations used only by the tests.

Everything here is deliberately written from scratch (explicit matrices,
index arithmetic, finite-difference stencils) rather than calling back
into qubitfit, so agreement is evidence and not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qubitfit import CircuitParams

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


def hadamard_rotation_amplitudes(phi):
    """R(phi) H |0> as two gates: ((c - s), (c + s)) / sqrt(2) at the half-angle phi / 2."""
    half = 0.5 * phi
    c, s = np.cos(half), np.sin(half)
    return (c - s) * SQRT1_2, (c + s) * SQRT1_2


def _composed_amplitudes(xs, theta):
    # R(x - theta) H |0> = R((x + pi/2) - theta) |0>: (cos, sin) at the
    # half-angle, the quarter turn added to x first, then theta subtracted
    half = ((xs + math.pi / 2) - theta) * 0.5
    return np.cos(half), np.sin(half)


def per_qubit_state(theta1, theta2, xs):
    """The four register amplitudes over ``xs``, shape ``xs.shape + (4,)``.

    Each qubit's composed-rotation amplitude pair on its own, then the
    products a_first * a_second in index order: the same floating-point
    operations as the simulator's state, so the two agree bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    first = _composed_amplitudes(xs, theta2)
    second = _composed_amplitudes(xs, theta1)
    return np.stack([first[b >> 1] * second[b & 1] for b in range(4)], axis=-1)


def per_qubit_terms(theta1, theta2, g, xs):
    """The four terms (g_b * p_first) * p_second of the output, in index order.

    Two separate amplitude pairs (cos, sin) at ((x + pi/2) - theta) / 2,
    four squares, then each term one qubit at a time. ``theta1``,
    ``theta2`` and each ``g[b]`` broadcast against ``xs``.
    """
    xs = np.asarray(xs, dtype=float)
    a_second0, a_second1 = _composed_amplitudes(xs, theta1)
    a_first0, a_first1 = _composed_amplitudes(xs, theta2)
    p_second0, p_second1 = np.square(a_second0), np.square(a_second1)
    p_first0, p_first1 = np.square(a_first0), np.square(a_first1)
    return (
        g[0] * p_first0 * p_second0,
        g[1] * p_first0 * p_second1,
        g[2] * p_first1 * p_second0,
        g[3] * p_first1 * p_second1,
    )


def per_qubit_grid(theta1, theta2, g, xs):
    """Circuit output over ``xs`` with each qubit computed on its own.

    The four :func:`per_qubit_terms` summed in index order,
    ((t00 + t01) + t10) + t11: the same floating-point operations as the
    simulator kernel, one qubit at a time, so the two agree bit for bit.
    """
    t00, t01, t10, t11 = per_qubit_terms(theta1, theta2, g, xs)
    return t00 + t01 + t10 + t11


@dataclass(frozen=True)
class TrigForm:
    """Coefficients of c0 + c1*sin(x-t1) + c2*sin(x-t2) + c3*sin(x-t1)*sin(x-t2)."""

    c0: float
    c1: float
    c2: float
    c3: float


def trig_form(g) -> TrigForm:
    """Regroup diag(g) into the two-frequency trig coefficients, by index arithmetic.

    Basis index b = 2*b_first + b_second; outcome bit 1 of a qubit carries
    +sin, bit 0 carries -sin, each probability being (1 +/- sin) / 2. So
    c0 sums every g_b, c1 signs g_b by b_second (rotated by x - theta1),
    c2 by b_first, and c3 by the product of both signs, all over 4.
    """
    c = [0.0, 0.0, 0.0, 0.0]
    for b in range(4):
        s_first, s_second = (1.0 if b >> 1 else -1.0), (1.0 if b & 1 else -1.0)
        for k, sign in enumerate((1.0, s_second, s_first, s_first * s_second)):
            c[k] += sign * float(g[b]) / 4.0
    return TrigForm(*c)


def trig_evaluate(form, theta1, theta2, x):
    """c0 + c1 sin(x - theta1) + c2 sin(x - theta2) + c3 sin(x - theta1) sin(x - theta2)."""
    s1 = np.sin(x - theta1)
    s2 = np.sin(x - theta2)
    return form.c0 + form.c1 * s1 + form.c2 * s2 + form.c3 * s1 * s2


# row k signs g_b as trig_form's c_k does: c = H g / 4
_H = np.array([[1, 1, 1, 1], [-1, 1, -1, 1], [-1, -1, 1, 1], [1, -1, -1, 1]], dtype=float)


def fourier_cubic(theta1, theta2, g) -> np.ndarray:
    """Maclaurin coefficients a0..a3 of the output, from its Fourier form: ``(..., 4)``.

    With c = H g / 4, sin(x - t) = -sin t + x cos t + x^2 sin t / 2 - x^3 cos t / 6
    and the products of sines collected by angle-sum identities:

        a0 = c0 - c1 sin t1 - c2 sin t2 + c3 sin t1 sin t2
        a1 = c1 cos t1 + c2 cos t2 - c3 sin(t1 + t2)
        a2 = (c1 sin t1 + c2 sin t2) / 2 + c3 cos(t1 + t2)
        a3 = -(c1 cos t1 + c2 cos t2) / 6 + (2/3) c3 sin(t1 + t2)

    ``theta1``, ``theta2`` and the rows ``g`` ``(..., 4)`` broadcast.
    """
    c0, c1, c2, c3 = np.moveaxis(np.asarray(g, dtype=float) @ _H.T / 4.0, -1, 0)
    s1, s2, k1, k2 = np.sin(theta1), np.sin(theta2), np.cos(theta1), np.cos(theta2)
    s12, k12 = np.sin(theta1 + theta2), np.cos(theta1 + theta2)
    return np.stack([
        c0 - c1 * s1 - c2 * s2 + c3 * s1 * s2,
        c1 * k1 + c2 * k2 - c3 * s12,
        (c1 * s1 + c2 * s2) / 2.0 + c3 * k12,
        -(c1 * k1 + c2 * k2) / 6.0 + 2.0 / 3.0 * c3 * s12,
    ], axis=-1)


def fourier_basis(xs) -> np.ndarray:
    """The columns [1, sin x, cos x, sin 2x, cos 2x] over ``xs``: ``xs.shape + (5,)``."""
    xs = np.asarray(xs, dtype=float)
    return np.stack([np.ones_like(xs), np.sin(xs), np.cos(xs), np.sin(2 * xs), np.cos(2 * xs)], axis=-1)


def fourier_weights(theta1, theta2, g) -> np.ndarray:
    """The weights of the output in :func:`fourier_basis`, as :func:`fourier_optimum` states them: ``(..., 5)``.

    With c = H g / 4, each angle sum and difference taken directly:

        w = (c0 + c3 cos(t1 - t2) / 2, c1 cos t1 + c2 cos t2,
             -(c1 sin t1 + c2 sin t2), -c3 sin(t1 + t2) / 2, -c3 cos(t1 + t2) / 2)

    ``theta1``, ``theta2`` and the rows ``g`` ``(..., 4)`` broadcast.
    """
    c0, c1, c2, c3 = np.moveaxis(np.asarray(g, dtype=float) @ _H.T / 4.0, -1, 0)
    return np.stack([
        c0 + c3 * np.cos(theta1 - theta2) / 2.0,
        c1 * np.cos(theta1) + c2 * np.cos(theta2),
        -(c1 * np.sin(theta1) + c2 * np.sin(theta2)),
        -c3 * np.sin(theta1 + theta2) / 2.0,
        -c3 * np.cos(theta1 + theta2) / 2.0,
    ], axis=-1)


def fourier_optimum(values, xs):
    """The certified global minimum of J over the inputs ``xs``: ``(J*, params, cond)``.

    With c = H g / 4 and si = sin(x - ti), the output c0 + c1 s1 + c2 s2 +
    c3 s1 s2 lies in the span of [1, sin x, cos x, sin 2x, cos 2x] (the
    Fourier view of Schuld, Sweke & Meyer, PRA 103, 032430, 2021), with
    weights

        w = (c0 + c3 cos(t1 - t2) / 2, c1 cos t1 + c2 cos t2,
             -(c1 sin t1 + c2 sin t2), -c3 sin(t1 + t2) / 2, -c3 cos(t1 + t2) / 2),

    and every point of the span is reached. So J* is the residual of the
    five-column least-squares fit, and the params that reach it follow from
    its weights: t1 + t2 is the phase of the second harmonic (0 where it
    vanishes), t1 = phase / 2 + pi / 4, so c3 = -2 |(w3, w4)| and
    sin(t1 - t2) = 1; a 2x2 solve gives c1 and c2, then c0, and g = H^T c,
    as H^T H = 4 I. ``cond`` is the fit matrix's condition number: J* and
    the params carry rounding of order ``cond * eps``. theta1 has a family
    of minimizers, so compare J, never the params.
    """
    basis = fourier_basis(xs)
    w = np.linalg.lstsq(basis, values, rcond=None)[0]
    r = values - basis @ w
    rho = math.hypot(w[3], w[4])
    phase = math.atan2(w[3], w[4]) if rho else 0.0
    t1 = phase / 2 + math.pi / 4
    t2 = phase - t1
    c3 = -2.0 * rho
    c1, c2 = np.linalg.solve([[math.cos(t1), math.cos(t2)], [-math.sin(t1), -math.sin(t2)]], w[1:3])
    c0 = w[0] - c3 * math.cos(t1 - t2) / 2
    g = _H.T @ np.array([c0, c1, c2, c3])
    return float(r @ r), CircuitParams(t1, t2, g), float(np.linalg.cond(basis))


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
