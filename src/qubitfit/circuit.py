"""Exact statevector simulation of the two-qubit product circuit.

The circuit prepares

    |psi(theta1, theta2, x)> = (R(x - theta2) (x) R(x - theta1)) (H (x) H) |00>

where H is the Hadamard gate, R(phi) is the real single-qubit rotation
with half-angle entries cos(phi/2) and sin(phi/2), and x is the scalar
input fed to both rotation gates. The trainable output is the expectation
value of a diagonal observable diag(g0, g1, g2, g3) in the computational
basis.

Basis convention: amplitude index b = 2*b_first + b_second, where the
first tensor slot carries R(x - theta2) and the second R(x - theta1).
The diagonal entry g_b pairs with amplitude index b. This convention is
shared with the closed-form expressions in :mod:`qubitfit.analytic` and
must not be changed in one place only.

The circuit is a product of two single-qubit circuits, and all its gates
are real. One amplitude step, :func:`_amplitudes`, computes the real
amplitude pairs of both qubits in one stacked pass, over scalar or array
inputs and trailing batch axes of the parameters. It feeds both the state
(:func:`prepare_state`) and the output (the kernel
:func:`circuit_expectation_grid`, which :func:`circuit_expectation` calls).

The optimizer evaluates the kernel once per proposal, with one raw
``(6,)`` vector over the grid, so that call carries no set-up beyond its
arithmetic: the layout constants are made once per input rank
(:func:`_leading_axes`), only a batch computes its own shapes, the
amplitudes are written, scaled and squared in one buffer, and the four
terms are summed in index order by in-place additions. Over an array of
inputs the output is a fresh array, which the caller may overwrite.

Parameters come as a ``CircuitParams`` or as raw rows
``[theta1, theta2, g0..g3]``, so the optimizer and the self-checks build
no ``CircuitParams`` per point; only ``CircuitParams`` is validated.
:func:`circuit_expectation` and :func:`prepare_state` take one row of
shape ``(6,)`` or a batch of shape ``(T, 6)``, paired with the inputs by
broadcasting. One point keeps the scalar types (a ``float``, a
:class:`StateVector`); a batch gives arrays.

All functions here are pure and all values immutable after construction,
so concurrent use needs no synchronization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12

# the amplitude step's scale factors as read-only 0-d arrays: a ufunc
# converts a Python float operand anew on every call
_HALF, _SCALE = np.array(0.5), np.array(1.0 / math.sqrt(2.0))
_HALF.setflags(write=False)
_SCALE.setflags(write=False)


@functools.cache
def _leading_axes(k: int) -> tuple[tuple, tuple[int, ...]]:
    """The single-vector kernel's layout constants for ``k`` input axes.

    The index that takes (theta2, theta1) from the vector with ``k`` new
    axes behind the tensor-slot axis, and the shape that puts the (basis
    bit, slot) axes of the diagonal in front of ``k`` broadcast axes. Made
    once per rank, so that a call builds none.
    """
    return (slice(1, None, -1),) + (None,) * k, (2, 2) + (1,) * k


@dataclass(frozen=True, eq=False)
class CircuitParams:
    """The full 6-dimensional trainable point: two angles plus diag(g)."""

    theta1: float
    theta2: float
    g: np.ndarray

    def __eq__(self, other: object) -> bool:
        # dataclass-generated equality chokes on the array field
        if not isinstance(other, CircuitParams):
            return NotImplemented
        return (
            self.theta1 == other.theta1
            and self.theta2 == other.theta2
            and bool(np.array_equal(self.g, other.g))
        )

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta1) and math.isfinite(self.theta2)):
            raise ValueError("rotation offsets must be finite")
        g = np.array(self.g, dtype=float)
        if g.shape != (4,):
            raise ValueError(f"observable diagonal must have 4 entries, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("observable diagonal entries must be finite")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)

    def as_vector(self) -> np.ndarray:
        """Pack into a flat array [theta1, theta2, g0, g1, g2, g3]."""
        return np.concatenate(([self.theta1, self.theta2], self.g))

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "CircuitParams":
        v = np.asarray(v, dtype=float)
        if v.shape != (6,):
            raise ValueError(f"parameter vector must have 6 entries, got shape {v.shape}")
        return cls(theta1=float(v[0]), theta2=float(v[1]), g=v[2:])


@dataclass(frozen=True, eq=False)
class StateVector:
    """Four real amplitudes of the two-qubit register, unit norm.

    Every gate of the circuit is real, and so is every state it prepares.
    An input with a non-zero imaginary part raises ``ValueError``.
    """

    amp: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return bool(np.array_equal(self.amp, other.amp))

    def __post_init__(self) -> None:
        amp = np.asarray(self.amp)
        if np.iscomplexobj(amp) and amp.imag.any():
            raise ValueError("statevector amplitudes must be real")
        amp = np.array(amp.real, dtype=float)
        if amp.shape != (4,):
            raise ValueError(f"statevector must have 4 amplitudes, got shape {amp.shape}")
        if not np.isfinite(amp).all():
            raise ValueError("statevector amplitudes must be finite")
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)
        norm_sq = self.norm_sq()
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"statevector is not normalized: |psi|^2 = {norm_sq!r}")

    def norm_sq(self) -> float:
        return float(np.dot(self.amp, self.amp))


def _param_rows(params: CircuitParams | np.ndarray) -> np.ndarray:
    """The raw parameter rows of ``params``: shape ``(6,)`` for one point, ``(T, 6)`` for a batch.

    Raw rows of another shape raise ``ValueError``; their entries are not
    checked, so a non-finite entry gives a non-finite output.
    """
    if isinstance(params, CircuitParams):
        return params.as_vector()
    v = np.asarray(params, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != 6:
        raise ValueError(f"parameter rows must have shape (6,) or (T, 6), got shape {v.shape}")
    return v


def _amplitudes(v: np.ndarray, xs) -> tuple[np.ndarray, tuple[int, ...]]:
    """The per-qubit amplitudes of raw parameters ``v`` at inputs ``xs``, unsquared.

    ``v`` is one vector ``(6,)`` or has trailing batch axes ``(6, *B)``.
    Returns ``p`` with ``p[b, slot]`` the amplitude of basis bit ``b`` in
    tensor slot ``slot`` (the first carries theta2), over the broadcast
    axes of ``B`` and ``xs``, and the shape that puts the diagonal's
    (b_first, b_second) axes in front of those axes. Each pair is
    ((c - s), (c + s)) / sqrt(2) at the half-angle (x - theta) / 2.
    """
    xs = np.asarray(xs, dtype=float)
    if v.ndim > 1:
        # the batch axes B of v, right-aligned against the input axes
        tail = (1,) * (xs.ndim - v.ndim + 1) + v.shape[1:]
        theta, pair_shape = v[1::-1].reshape((2,) + tail), (2, 2) + tail
    else:
        # the single vector (every training call) builds no shape
        index, pair_shape = _leading_axes(xs.ndim)
        theta = v[index]
    # axis 0 of half is the tensor slot, and (x - theta) * 0.5 is
    # 0.5 * (x - theta) exactly; the amplitudes c - s and c + s go into one
    # buffer, the slot's basis bit on axis 0, and are scaled there (a
    # ufunc's third argument is its output)
    half = xs - theta
    half *= _HALF
    c, s = np.cos(half), np.sin(half)
    p = np.empty((2,) + half.shape)
    np.subtract(c, s, p[0])
    np.add(c, s, p[1])
    p *= _SCALE
    return p, pair_shape


def prepare_state(params: CircuitParams | np.ndarray, x):
    """The circuit's two-qubit state at input x.

    (H (x) H)|00> is the product of two |+> states, and each rotation
    acts on its own qubit, so the state is the Kronecker product of the
    two single-qubit amplitude pairs of :func:`_amplitudes`: the four
    products in index order, which is much cheaper than ``np.kron``.

    One point gives a :class:`StateVector`. A batch of rows ``(T, 6)``
    gives the real ``(T, 4)`` amplitude rows, unvalidated, so a caller
    can measure how far each is from unit norm.
    """
    p, _ = _amplitudes(_param_rows(params).T, x)
    # amplitude index 2*i + j: basis bit i of the first slot, j of the second
    amp = np.stack([p[i, 0] * p[j, 1] for i in (0, 1) for j in (0, 1)], axis=-1)
    return StateVector(amp) if amp.ndim == 1 else amp


def circuit_expectation(params: CircuitParams | np.ndarray, x):
    """The circuit's output at input x: a ``float`` for one point, an array for a batch.

    Raw rows ``(T, 6)`` are paired with ``x`` by broadcasting. Smooth and
    2*pi-periodic in x, bounded by [min(g), max(g)].
    """
    if not isinstance(params, CircuitParams):
        params = _param_rows(params).T
    out = circuit_expectation_grid(params, x)
    return float(out) if out.ndim == 0 else out


def circuit_expectation_grid(params: CircuitParams | np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Circuit output over an array of inputs (or a scalar).

    ``params`` is a :class:`CircuitParams`, its raw vector
    ``[theta1, theta2, g0..g3]`` of shape ``(6,)``, or raw parameters
    with trailing batch axes, ``(6, *B)``; the output has the broadcast
    shape of ``B`` and ``xs.shape``. Raw parameters of another shape raise
    ``ValueError``, but their entries are not checked, so a non-finite
    entry gives a non-finite output.

    The amplitudes of :func:`_amplitudes`, squared into probabilities,
    then the expectation of the diagonal observable, vectorized over the
    inputs and the batch. This is what the objective evaluates, so it
    stays on the amplitude route rather than any closed-form shortcut.
    """
    if isinstance(params, CircuitParams):
        v = params.as_vector()
    else:
        v = np.asarray(params, dtype=float)
        if v.shape != (6,) and (v.ndim < 2 or v.shape[0] != 6):
            raise ValueError(f"parameters must have shape (6,) or (6, *B), got shape {v.shape}")
    p, pair_shape = _amplitudes(v, xs)
    np.square(p, p)
    # term (b_first, b_second) is (g_b * p_first) * p_second, as one qubit
    # at a time would compute it; the four are summed in index order
    terms = v[2:].reshape(pair_shape) * p[:, 0, None]
    terms *= p[:, 1]
    out = terms[0, 0] + terms[0, 1]
    out += terms[1, 0]
    out += terms[1, 1]
    return out

