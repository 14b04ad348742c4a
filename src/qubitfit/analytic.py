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

with c-coefficients that are fixed +/- combinations of g/4. The
angle-sum identities turn this into the Fourier series
w0 + w1 sin x + w2 cos x + w3 sin 2x + w4 cos 2x (Schuld, Sweke & Meyer,
PRA 103, 032430, 2021) with weights, t standing for theta,

    w0 = c0 + c3 cos(t1 - t2) / 2,    w1 = c1 cos t1 + c2 cos t2,
    w2 = -(c1 sin t1 + c2 sin t2),    w3 = -c3 sin(t1 + t2) / 2,
    w4 = -c3 cos(t1 + t2) / 2.

The cubic keeps the terms of degree <= 3 of the five harmonics; its
truncation error is O(x^4), bounded as :func:`cubic_remainder` states.

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
    """Circuit output as the five-term Fourier series of the module docstring.

    Accepts scalar or array x and a batch of rows; returns a ``float`` for
    one point, an array otherwise.
    """
    out = _fourier_series(np.asarray(x, dtype=float), *_fourier_weights(params))
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


def _fourier_weights(params) -> tuple:
    # w0..w4 of w0 + w1 sin x + w2 cos x + w3 sin 2x + w4 cos 2x from the
    # angle-sum identities, one sin and one cos per angle; the entries are
    # numpy scalars or arrays of one per row
    theta1, theta2, *g = _columns(_param_rows(params))
    c0, c1, c2, c3 = _trig_coefficients(*g)
    s1, k1, s2, k2 = np.sin(theta1), np.cos(theta1), np.sin(theta2), np.cos(theta2)
    return (
        c0 + c3 * (k1 * k2 + s1 * s2) / 2.0,
        c1 * k1 + c2 * k2,
        -(c1 * s1 + c2 * s2),
        -c3 * (s1 * k2 + k1 * s2) / 2.0,
        -c3 * (k1 * k2 - s1 * s2) / 2.0,
    )


def _fourier_series(x, w0, w1, w2, w3, w4):
    # the series at x, with sin 2x and cos 2x formed from sin x and cos x
    s, c = np.sin(x), np.cos(x)
    return w0 + w1 * s + w2 * c + w3 * (2.0 * s * c) + w4 * (c * c - s * s)


def _maclaurin(w0, w1, w2, w3, w4) -> tuple:
    # a0..a3: the terms of degree <= 3 of 1, sin x, cos x, sin 2x and cos 2x
    return (w0 + w2 + w4, w1 + 2.0 * w3, -(w2 / 2.0 + 2.0 * w4), -(w1 + 8.0 * w3) / 6.0)


def cubic_coefficients(params: CircuitParams | np.ndarray) -> CubicPoly | np.ndarray:
    """Degree-3 Maclaurin coefficients of the circuit output about x = 0.

    The terms of degree <= 3 of the weighted harmonics, summed as
    a0 = w0 + w2 + w4, a1 = w1 + 2 w3, a2 = -(w2 / 2 + 2 w4) and
    a3 = -(w1 + 8 w3) / 6. They equal the true Maclaurin coefficients
    f^(k)(0) / k! for k <= 3, since discarded terms have degree >= 4.

    One point gives a :class:`CubicPoly` of floats; a batch of rows
    ``(*B, 6)`` gives the ``(*B, 4)`` array of rows ``[a0, a1, a2, a3]``.
    """
    v = _param_rows(params)
    a = _maclaurin(*_fourier_weights(v))
    if v.ndim == 1:
        return CubicPoly(*(float(a_k) for a_k in a))
    return np.stack(a, axis=-1)


def cubic_remainder(params: CircuitParams | np.ndarray, x):
    """|f(x) - P3(x)| where P3 is the cubic truncation about 0.

    A ``float`` for one point, an array for a batch of rows. As each
    ``|c_k| <= sum|g| / 4``, ``|f''''| <= |w1| + |w2| + 16 (|w3| + |w4|) <= 5 sum|g|``,
    and Lagrange's form of the remainder gives
    ``|f(x) - P3(x)| <= (5/24) x^4 sum|g|``, up to the rounding of f and P3.
    """
    w = _fourier_weights(params)
    a0, a1, a2, a3 = _maclaurin(*w)
    x = np.asarray(x, dtype=float)
    out = abs(_fourier_series(x, *w) - (a0 + x * (a1 + x * (a2 + x * a3))))
    return float(out) if np.ndim(out) == 0 else out
