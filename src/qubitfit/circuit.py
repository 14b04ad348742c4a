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
are real. The Hadamard is itself a rotation, H|0> = R(pi/2)|0>, and
rotations compose, R(a) R(b) = R(a + b), so each qubit's state is
R(x - theta + pi/2)|0> = (cos phi, sin phi) with phi = (x - theta + pi/2) / 2:
one cos/sin pair per qubit.

Parameters come as a ``CircuitParams`` or as raw rows
``[theta1, theta2, g0..g3]``, so the optimizer and the self-checks build
no ``CircuitParams`` per point; only ``CircuitParams`` is validated. Every
function here takes one row of shape ``(6,)`` or a batch of rows
``(*B, 6)``, whose batch axes ``B`` broadcast against the inputs.
:func:`_param_rows` is the one shape check. One point keeps the scalar
types (a ``float``, a :class:`StateVector`); a batch gives arrays.

A :class:`Workspace`, built for a rows shape and an input array, binds the
one kernel body over its own buffers. Its amplitude step computes the real
amplitude pairs of both qubits in one stacked pass and feeds both the
state (:func:`prepare_state`) and the output (the kernel
:func:`circuit_expectation_grid`, of which :func:`circuit_expectation` is
the float-typed form). Its ten ufuncs each write through their output
argument. A plain call builds its own workspace, so its output is a fresh
array, which the caller may overwrite. The optimizer keeps one workspace
per restart and passes it in: a ``(6,)`` array then goes straight to the
bound kernel, which copies it in, runs its ufuncs and allocates nothing.

All functions here are pure and all values other than a
:class:`Workspace` immutable after construction, so concurrent use needs
no synchronization as long as each workspace serves one caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12

# the amplitude step's half-angle factor as a read-only 0-d array: a ufunc
# converts a Python float operand anew on every call
_HALF = np.array(0.5)
_HALF.setflags(write=False)


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
    """The raw parameter rows of ``params``: shape ``(6,)`` for one point, ``(*B, 6)`` for a batch.

    Raw rows of another shape raise ``ValueError``; their entries are not
    checked, so a non-finite entry gives a non-finite output.
    """
    if isinstance(params, CircuitParams):
        return params.as_vector()
    v = np.asarray(params, dtype=float)
    if v.ndim == 0 or v.shape[-1] != 6:
        raise ValueError(f"parameter rows must have shape (6,) or (*B, 6), got shape {v.shape}")
    return v


def _columns(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` with its last axis in front: rows ``(*B, k)`` as columns ``(k, *B)``."""
    return a.transpose((a.ndim - 1, *range(a.ndim - 1)))


class Workspace:
    """The kernel bound to its buffers, for one rows shape and one input array.

    Built once for raw rows of shape ``(6,)`` or ``(*B, 6)`` and the inputs
    ``xs`` (kept, as a float array, in ``xs``), it binds the kernel body
    over its buffers as two closures. Each takes an array ``v`` of the
    workspace's shape, unchecked, copies it into a float buffer and
    overwrites every buffer it reads, so no value of a call reaches the next:

    - ``amplitudes(v)`` returns ``p``, with ``p[b, slot]`` the unsquared
      amplitude of basis bit ``b`` in tensor slot ``slot`` (the first
      carries theta2): cos and sin at ((x + pi/2) - theta) / 2;
    - ``expectation(v)`` returns ``out``, the output over ``B`` and ``xs``.

    The closures hold the buffers, never the workspace, so a dropped
    workspace is freed at once, without the cyclic garbage collector.
    """

    def __init__(self, shape: tuple[int, ...], xs) -> None:
        self.xs = xs = np.asarray(xs, dtype=float)
        self.shape = shape = tuple(shape)
        # the batch axes B of the rows, right-aligned against the input axes;
        # a single row puts only new axes behind its slot axis
        extra = max(0, xs.ndim - len(shape) + 1)
        tail = (1,) * extra + shape[:-1]
        # the rows are copied into vec, one parameter per slice of axis 0,
        # through its transposed view rows; the kernel reads vec as
        # (theta2, theta1) with the new axes, and as g with its
        # (b_first, b_second) axes in front
        vec = np.empty(shape[-1:] + shape[:-1])
        rows = vec.transpose((*range(1, vec.ndim), 0))
        theta, g = vec[(slice(1, None, -1),) + (None,) * extra], vec[2:].reshape((2, 2) + tail)
        half = np.empty(np.broadcast_shapes(theta.shape, xs.shape))
        xq = xs + math.pi / 2  # H|0> = R(pi/2)|0>, composed into each rotation
        # p[b, slot]: the amplitude of basis bit b in tensor slot slot
        p = np.empty((2,) + half.shape)
        p0, p1, first, second = p[0], p[1], p[:, 0, None], p[:, 1]
        terms = np.empty(np.broadcast_shapes(g.shape, first.shape))
        # with the ellipsis, a term row is a view even when it is 0-d
        t00, t01, t10, t11 = terms[0, 0, ...], terms[0, 1, ...], terms[1, 0, ...], terms[1, 1, ...]
        self.out = out = np.empty(terms.shape[2:])
        # closure cells: a call then skips the global and attribute lookups
        subtract, multiply, add = np.subtract, np.multiply, np.add
        cos, sin, square = np.cos, np.sin, np.square

        def amplitudes(v):
            # axis 0 of half is the tensor slot; cos and sin go into one buffer,
            # the slot's basis bit on axis 0 (a ufunc's last argument is its output)
            rows[...] = v
            subtract(xq, theta, half)
            multiply(half, _HALF, half)
            cos(half, p0)
            sin(half, p1)
            return p

        def expectation(v):
            square(amplitudes(v), p)
            # term (b_first, b_second) is (g_b * p_first) * p_second, as one
            # qubit at a time would compute it; the four are summed in index order
            multiply(g, first, terms)
            multiply(terms, second, terms)
            add(t00, t01, out)
            add(out, t10, out)
            add(out, t11, out)
            return out

        self.amplitudes, self.expectation = amplitudes, expectation


def prepare_state(params: CircuitParams | np.ndarray, x):
    """The circuit's two-qubit state at input x.

    (H (x) H)|00> is the product of two |+> states, and each rotation
    acts on its own qubit, so the state is the Kronecker product of the
    two single-qubit amplitude pairs of :attr:`Workspace.amplitudes`: the
    four products in index order, which is much cheaper than ``np.kron``.

    One point gives a :class:`StateVector`. A batch of rows ``(*B, 6)``
    gives the real amplitude rows ``(..., 4)``, unvalidated, so a caller
    can measure how far each is from unit norm.
    """
    v = _param_rows(params)
    p = Workspace(v.shape, x).amplitudes(v)
    # amplitude index 2*i + j: basis bit i of the first slot, j of the second
    amp = np.stack([p[i, 0] * p[j, 1] for i in (0, 1) for j in (0, 1)], axis=-1)
    return StateVector(amp) if amp.ndim == 1 else amp


def circuit_expectation(params: CircuitParams | np.ndarray, x):
    """The circuit's output at input x: a ``float`` for one point, an array for a batch.

    :func:`circuit_expectation_grid` without a workspace, with a one-point
    output as a ``float``. Smooth and 2*pi-periodic in x, bounded by
    [min(g), max(g)].
    """
    out = circuit_expectation_grid(params, x)
    return float(out) if out.ndim == 0 else out


def circuit_expectation_grid(
    params: CircuitParams | np.ndarray, xs: np.ndarray, workspace: Workspace | None = None
) -> np.ndarray:
    """Circuit output over an array of inputs (or a scalar).

    ``params`` is a :class:`CircuitParams`, one raw row
    ``[theta1, theta2, g0..g3]`` of shape ``(6,)``, or a batch of rows
    ``(*B, 6)``; the output has the broadcast shape of ``B`` and
    ``xs.shape``, so rows ``(T, 1, 6)`` evaluate every row over a grid
    ``(N,)`` as ``(T, N)``. Raw rows of another shape raise ``ValueError``,
    but their entries are not checked, so a non-finite entry gives a
    non-finite output.

    Without ``workspace`` the call builds its own, so the output is a
    fresh array (a scalar for one point). With one, ``params`` must be an
    ``ndarray`` of the workspace's shape and ``xs`` the workspace's own
    ``xs``, and anything else raises ``ValueError``. The array goes
    straight to the workspace's bound kernel, which copies it into its
    float buffer as ``np.asarray`` would convert it, and the output is the
    workspace's buffer ``out``, overwritten by its next evaluation.

    The workspace's amplitudes, squared into probabilities, then the
    expectation of the diagonal observable, vectorized over the inputs and
    the batch. This is what the objective evaluates, so it stays on the
    amplitude route rather than any closed-form shortcut.
    """
    ws = workspace
    if ws is not None:
        if type(params) is np.ndarray and params.shape == ws.shape and xs is ws.xs:
            return ws.expectation(params)
        raise ValueError(f"the workspace serves ndarray rows of shape {ws.shape} at its own inputs xs only")
    v = _param_rows(params)
    out = Workspace(v.shape, xs).expectation(v)
    return out if out.ndim else out[()]
