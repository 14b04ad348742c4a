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

The circuit is a product of two single-qubit circuits, so one helper
computes the per-qubit amplitudes for scalar or array inputs. The state
is their Kronecker product, and the output is evaluated by one kernel,
:func:`circuit_expectation_grid`; the scalar :func:`circuit_expectation`
is that kernel on a batch of one, so the two cannot drift apart.

All functions here are pure and all values immutable after construction,
so concurrent use needs no synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12

_SQRT1_2 = 1.0 / math.sqrt(2.0)


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
        if not np.all(np.isfinite(g)):
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
    """Four complex amplitudes of the two-qubit register, unit norm.

    Amplitudes stay complex even though this circuit only ever produces
    real ones; the simulator does not get to assume what a future gate
    set would preserve.
    """

    amp: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return bool(np.array_equal(self.amp, other.amp))

    def __post_init__(self) -> None:
        amp = np.array(self.amp, dtype=complex)
        if amp.shape != (4,):
            raise ValueError(f"statevector must have 4 amplitudes, got shape {amp.shape}")
        if not np.all(np.isfinite(amp.real)) or not np.all(np.isfinite(amp.imag)):
            raise ValueError("statevector amplitudes must be finite")
        norm_sq = float(np.real(np.vdot(amp, amp)))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"statevector is not normalized: |psi|^2 = {norm_sq!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amp", amp)

    def probabilities(self) -> np.ndarray:
        """Measurement probabilities |amp_b|^2 over the four basis states."""
        return np.real(self.amp * np.conj(self.amp))

    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.amp, self.amp)))


def _qubit_amplitudes(phi):
    """Amplitudes of R(phi) H |0>: ((c - s), (c + s)) / sqrt(2) at half-angle phi/2.

    ``phi`` may be a scalar or an array; the arithmetic is the same either way.
    """
    half = 0.5 * phi
    c, s = np.cos(half), np.sin(half)
    return (c - s) * _SQRT1_2, (c + s) * _SQRT1_2


def prepare_state(params: CircuitParams, x: float) -> StateVector:
    """The circuit's two-qubit state at input x.

    (H (x) H)|00> is the product of two |+> states, and each rotation
    acts on its own qubit, so the state is the Kronecker product of the
    two single-qubit amplitude pairs (for vectors, the flattened outer
    product, which is much cheaper than ``np.kron``).
    """
    first = _qubit_amplitudes(x - params.theta2)
    second = _qubit_amplitudes(x - params.theta1)
    return StateVector(np.outer(first, second).ravel())


def expectation(state: StateVector, g: np.ndarray) -> float:
    """Expectation of the diagonal observable: sum_b g_b |amp_b|^2.

    Always lies in [min(g), max(g)] because the probabilities are a
    convex combination.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (4,):
        raise ValueError(f"observable diagonal must have 4 entries, got shape {g.shape}")
    return float(np.dot(g, state.probabilities()))


def circuit_expectation(params: CircuitParams, x: float) -> float:
    """The circuit's scalar output at input x: a batch of one on the grid route.

    Smooth and 2*pi-periodic in x, bounded by [min(g), max(g)].
    """
    return float(circuit_expectation_grid(params, x))


def circuit_expectation_grid(params: CircuitParams, xs: np.ndarray) -> np.ndarray:
    """Circuit output over an array of inputs (or a scalar).

    Per-qubit amplitudes, then probabilities, then the expectation of the
    diagonal observable, vectorized over the inputs. This is what the
    objective evaluates, so it stays on the amplitude route rather than
    any closed-form shortcut.
    """
    xs = np.asarray(xs, dtype=float)
    a_second0, a_second1 = _qubit_amplitudes(xs - params.theta1)
    a_first0, a_first1 = _qubit_amplitudes(xs - params.theta2)
    p_second0 = np.square(a_second0)
    p_second1 = np.square(a_second1)
    p_first0 = np.square(a_first0)
    p_first1 = np.square(a_first1)
    g = params.g
    return (
        g[0] * p_first0 * p_second0
        + g[1] * p_first0 * p_second1
        + g[2] * p_first1 * p_second0
        + g[3] * p_first1 * p_second1
    )
