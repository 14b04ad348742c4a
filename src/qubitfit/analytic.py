"""Closed-form output of the circuit and its cubic Maclaurin truncation.

Derivation sketch, using the basis convention of :mod:`qubitfit.circuit`
(first tensor slot rotated by x - theta2, second by x - theta1):

Each qubit factor after R(phi) H |0> has amplitudes ((c - s), (c + s)) / sqrt(2)
with c = cos(phi/2), s = sin(phi/2), that is cos and sin of phi/2 + pi/4
(the simulator's composed rotation), giving outcome probabilities

    p0(phi) = (1 - sin phi) / 2,    p1(phi) = (1 + sin phi) / 2.

The output is therefore the g-weighted product of single-qubit
probabilities, which regroups into the two-frequency trig expansion

    c0 + c1*sin(x - theta1) + c2*sin(x - theta2)
       + c3*sin(x - theta1)*sin(x - theta2)

with c-coefficients that are fixed +/- combinations of g/4. Substituting
the degree-3 Maclaurin series of sin(x - theta),

    sin(x - theta) = -sin t + cos t * x + (sin t / 2) * x^2 - (cos t / 6) * x^3 + O(x^4),

and truncating products at degree 3 yields a cubic polynomial in x whose
coefficients are smooth functions of all six parameters. The truncation
error is O(x^4), which the test suite checks by a step-doubling ratio.

This module is an independent route to the same numbers as the simulator
in :mod:`qubitfit.circuit`; the two are cross-checked against each other
and neither may be rewritten in terms of the other.

Like the simulator, :func:`closed_form_expectation`,
:func:`cubic_coefficients` and :func:`cubic_remainder` take a
``CircuitParams``, one raw row ``[theta1, theta2, g0..g3]`` of shape
``(6,)``, or a batch of rows ``(*B, 6)``, whose batch axes broadcast
against the inputs. One point keeps the scalar types (a ``float``, a
:class:`CubicPoly` of floats); a batch gives arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, _columns, _param_rows


@dataclass(frozen=True)
class CubicPoly:
    """Coefficients of a0 + a1*x + a2*x^2 + a3*x^3."""

    a0: float
    a1: float
    a2: float
    a3: float

    def __call__(self, x):
        """Evaluate by Horner's rule; accepts scalars or arrays."""
        return self.a0 + x * (self.a1 + x * (self.a2 + x * self.a3))

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.a2, self.a3])


def closed_form_expectation(params: CircuitParams | np.ndarray, x):
    """Circuit output as a product of single-qubit probabilities.

    Evaluates sum_b g_b * p_{b_first}(x - theta2) * p_{b_second}(x - theta1)
    with p0(phi) = (1 - sin phi)/2 and p1(phi) = (1 + sin phi)/2. Accepts
    scalar or array x and a batch of rows; returns a ``float`` for one
    point, an array otherwise.
    """
    # one entry per name for a single row, one column per name for a batch
    theta1, theta2, g0, g1, g2, g3 = _columns(_param_rows(params))
    x = np.asarray(x, dtype=float)
    s_first = np.sin(x - theta2)
    s_second = np.sin(x - theta1)
    p_first0, p_first1 = 0.5 * (1.0 - s_first), 0.5 * (1.0 + s_first)
    p_second0, p_second1 = 0.5 * (1.0 - s_second), 0.5 * (1.0 + s_second)
    out = (
        g0 * p_first0 * p_second0
        + g1 * p_first0 * p_second1
        + g2 * p_first1 * p_second0
        + g3 * p_first1 * p_second1
    )
    return float(out) if np.ndim(out) == 0 else out


def _trig_coefficients(g0, g1, g2, g3) -> tuple:
    # c0..c3 of c0 + c1*sin(x-t1) + c2*sin(x-t2) + c3*sin(x-t1)*sin(x-t2);
    # the entries are floats or arrays of one per row
    return (
        (g0 + g1 + g2 + g3) / 4.0,
        (-g0 + g1 - g2 + g3) / 4.0,
        (-g0 - g1 + g2 + g3) / 4.0,
        (g0 - g1 - g2 + g3) / 4.0,
    )


def _sin_shift_series(theta):
    # degree-3 Maclaurin coefficients of sin(x - theta) in x
    s, c = np.sin(theta), np.cos(theta)
    return (-s, c, 0.5 * s, -c / 6.0)


def _truncated_product(p: tuple, q: tuple) -> tuple:
    # product of two cubics, keeping terms up to degree 3; the coefficients
    # are floats or arrays of one coefficient per row
    return tuple(
        sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(4)
    )


def cubic_coefficients(params: CircuitParams | np.ndarray) -> CubicPoly | np.ndarray:
    """Degree-3 Maclaurin coefficients of the circuit output about x = 0.

    Computed symbolically from the trig regrouping: each sin(x - theta)
    is replaced by its cubic series and the cross product is truncated at
    degree 3. The result equals the true Maclaurin coefficients
    f^(k)(0) / k! for k <= 3, since discarded terms have degree >= 4.

    One point gives a :class:`CubicPoly` of floats; a batch of rows
    ``(*B, 6)`` gives the ``(*B, 4)`` array of rows ``[a0, a1, a2, a3]``.
    """
    v = _param_rows(params)
    theta1, theta2, *g = _columns(v)
    c0, c1, c2, c3 = _trig_coefficients(*g)
    q1 = _sin_shift_series(theta1)
    q2 = _sin_shift_series(theta2)
    cross = _truncated_product(q1, q2)
    a = [c1 * q1[k] + c2 * q2[k] + c3 * cross[k] for k in range(4)]
    a[0] = a[0] + c0
    if v.ndim == 1:
        return CubicPoly(*(float(a_k) for a_k in a))
    return np.stack(a, axis=-1)


def cubic_remainder(params: CircuitParams | np.ndarray, x):
    """|f(x) - P3(x)| where P3 is the cubic truncation about 0.

    A ``float`` for one point, an array for a batch of rows. Meaningful
    as a diagnostic for |x| <= 1; behaves as O(x^4) near 0.
    """
    a = cubic_coefficients(params)
    poly = a if isinstance(a, CubicPoly) else CubicPoly(*_columns(a))
    return abs(closed_form_expectation(params, x) - poly(x))

