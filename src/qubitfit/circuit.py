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
type (a ``float``); a batch gives arrays.

A :class:`Workspace`, built for the batch shape ``B`` of its rows (``()``
for one row) and an input array, binds the one kernel body over its own
buffers. Its amplitude step computes the real amplitude pairs of both
qubits in one stacked pass and feeds both the state
(:func:`prepare_state`) and the output (the kernel
:func:`circuit_expectation_grid`, of which :func:`circuit_expectation` is
the float-typed form). Its eight ufunc calls each take operands of one
shape and write through their output argument. A plain call builds its own
workspace, so its output is a fresh array, which the caller may overwrite.
A workspace sums its target values, negated, as a fifth term, so a
workspace built with them returns the residual, and its third closure
sums the residual's squares over the grid, one index per row: the
optimizer builds one per fit and passes it to
:func:`~qubitfit.objective.performance_index`, which calls that closure
directly. This is the one place where the index is summed.

All functions here are pure and all values other than a
:class:`Workspace` immutable after construction, so concurrent use needs
no synchronization as long as each workspace serves one caller.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# the amplitude step's half-angle factor as a read-only 0-d array: a ufunc
# converts a Python float operand anew on every call
_HALF = np.array(0.5)
_HALF.setflags(write=False)
# the four-term sum starts at -0.0, as -0.0 + t is t for every double t
_NEG_ZERO = np.array(-0.0)
_NEG_ZERO.setflags(write=False)


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


def _grid_points(grid) -> np.ndarray:
    """``grid`` as a float64 array, which must have shape ``(N,)`` with N >= 1."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not grid.size:
        raise ValueError(f"grid must be a 1-D array of at least one point, got shape {grid.shape}")
    return grid


def _count(name: str, value, least: int) -> int:
    """``value``, which must be an integer (``int`` or ``np.integer``), as an
    ``int`` of at least ``least``: the check of every count and seed."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _columns(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` with its last axis in front: rows ``(*B, k)`` as columns ``(k, *B)``."""
    return a.transpose((a.ndim - 1, *range(a.ndim - 1)))


class Workspace:
    """The kernel bound to its buffers, for one batch shape and one input array.

    Built once for the batch shape ``B`` of raw rows ``(*B, 6)`` (``()`` for
    one row) and the inputs ``xs``, kept as a float array, it binds the
    kernel body over its buffers as three closures. Each takes rows ``v`` of
    shape ``(*B, 6)``, unchecked, copies them into a float buffer and
    overwrites every buffer it reads, so no value of a call reaches the next:

    - ``amplitudes(v)`` returns ``p``, with ``p[b, k]`` the unsquared
      amplitude of basis bit ``b`` of the qubit offset by theta(k+1) (the
      first tensor slot's is k = 1): cos and sin at ((x + pi/2) - theta) / 2;
    - ``expectation(v)`` returns ``out``, the output over ``B`` and ``xs``
      minus the target ``values``, whose negation the sum takes as a fifth
      term: ``-(values - output)`` bit for bit, as rounding to nearest is
      symmetric in sign, but for the sign of a zero or a NaN. Without
      ``values`` that term is ``-0.0``, and the output keeps every bit;
    - ``index(v)`` returns the sum of the squares of ``expectation(v)``
      over the last (grid) axis, one per row, as a fresh value: a 0-d one
      for ``B = ()`` and an input array ``(N,)``, shape ``(m,)`` for rows
      ``(m, 1, 6)``. Each row's sum has the bytes of ``r.dot(r)`` for its
      residual ``r``, as the sign of ``r_i`` reaches no product ``r_i * r_i``,
      and a non-finite row gives a non-finite sum in its own entry only.
      Over inputs not of shape ``(N,)``, N >= 1, it raises ``ValueError``.

    The closures hold the buffers, never the workspace, so a dropped
    workspace is freed at once, without the cyclic garbage collector.
    """

    def __init__(self, batch: tuple[int, ...], xs, values=0.0) -> None:
        self.xs = xs = np.asarray(xs, dtype=float)
        # every buffer spans s, the batch axes broadcast against the input
        # axes: each ufunc runs numpy's trivial loop on operands of one shape,
        # and only the copies (setitem, far cheaper) broadcast
        s = np.broadcast_shapes(batch, xs.shape)
        # the rows are copied into vec, one parameter per slice of axis 0,
        # through its transposed view rows; the kernel reads vec as
        # (theta1, theta2) and as g with its (b_first, b_second) axes in front
        vec = np.empty((6,) + s)
        rows = vec.transpose((*range(1, vec.ndim), 0))
        theta, g = vec[:2], vec[2:].reshape((2, 2) + s)
        # H|0> = R(pi/2)|0>, composed into each rotation
        xq = np.broadcast_to(xs + math.pi / 2, theta.shape).copy()
        p = np.empty((2,) + theta.shape)
        p0, p1, first, second = p[0], p[1], p[:, 1, None], p[:, 0]
        # the four terms, then -values, on one axis, summed into out in index
        # order: as an outer axis term by term, as the only one (one output
        # point) by numpy's pairwise inner loop, left to right below eight terms;
        # a bare kernel's -0.0 adds nothing, as t + -0.0 is t for every double t
        summands = np.empty((5,) + s)
        terms, ps = summands[:4].reshape(g.shape), np.empty(g.shape)
        summands[4] = np.negative(values)
        out = np.empty(s)
        # closure cells: a call then skips the global and attribute lookups
        subtract, multiply, add_reduce, matmul = np.subtract, np.multiply, np.add.reduce, np.matmul
        cos, sin, square = np.cos, np.sin, np.square

        def amplitudes(v):
            # the half-angles overwrite the copied theta rows; cos and sin go into
            # one buffer, basis bit on axis 0 (a ufunc's last argument is its output)
            rows[...] = v
            subtract(xq, theta, theta)
            multiply(theta, _HALF, theta)
            cos(theta, p0)
            sin(theta, p1)
            return p

        def expectation(v):
            square(amplitudes(v), p)
            # term (b_first, b_second) is (g_b * p_first) * p_second, as one qubit
            # at a time would compute it; their sum is ((t00 + t01) + t10) + t11
            terms[...] = first
            ps[...] = second
            multiply(g, terms, terms)
            multiply(terms, ps, terms)
            add_reduce(summands, 0, None, out, False, _NEG_ZERO)
            return out

        # the residual sum of squares over the grid axis, one per row, its reduce
        # picked here: one row keeps out.dot(out), a batch takes a stack of
        # (1, N) @ (N, 1) products, each the bytes of its row's dot product
        if xs.ndim != 1 or not xs.size:
            def index(v):  # no grid axis to sum: raises the grid check's error
                _grid_points(xs)
        elif batch:
            row, column = out[..., None, :], out[..., :, None]

            def index(v):
                expectation(v)
                return matmul(row, column)[..., 0, 0]
        else:
            dot = out.dot

            def index(v):
                expectation(v)
                return dot(out)

        self.amplitudes, self.expectation, self.index = amplitudes, expectation, index


def prepare_state(params: CircuitParams | np.ndarray, x) -> np.ndarray:
    """The circuit's two-qubit state at input x.

    (H (x) H)|00> is the product of two |+> states, and each rotation
    acts on its own qubit, so the state is the Kronecker product of the
    two single-qubit amplitude pairs of :attr:`Workspace.amplitudes`: the
    four products in index order, which is much cheaper than ``np.kron``.

    The real amplitudes, unvalidated, so a caller can measure how far a
    state is from unit norm: shape ``(4,)`` for one point, ``(..., 4)``
    for a batch of rows ``(*B, 6)``.
    """
    v = _param_rows(params)
    p = Workspace(v.shape[:-1], x).amplitudes(v)
    # amplitude index 2*i + j: basis bit i of the first slot, j of the second
    return np.stack([p[i, 1] * p[j, 0] for i in (0, 1) for j in (0, 1)], axis=-1)


def circuit_expectation(params: CircuitParams | np.ndarray, x):
    """The circuit's output at input x: a ``float`` for one point, an array for a batch.

    :func:`circuit_expectation_grid` with a one-point output as a
    ``float``. Smooth and 2*pi-periodic in x, bounded by [min(g), max(g)].
    """
    out = circuit_expectation_grid(params, x)
    return float(out) if out.ndim == 0 else out


def circuit_expectation_grid(params: CircuitParams | np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Circuit output over an array of inputs (or a scalar).

    ``params`` is a :class:`CircuitParams`, one raw row
    ``[theta1, theta2, g0..g3]`` of shape ``(6,)``, or a batch of rows
    ``(*B, 6)``; the output has the broadcast shape of ``B`` and
    ``xs.shape``, so rows ``(T, 1, 6)`` evaluate every row over a grid
    ``(N,)`` as ``(T, N)``. Raw rows of another shape raise ``ValueError``,
    but their entries are not checked, so a non-finite entry gives a
    non-finite output.

    The call builds its own workspace, so the output is a fresh array (a
    scalar for one point): the workspace's amplitudes, squared into
    probabilities, then the expectation of the diagonal observable,
    vectorized over the inputs and the batch. This is what the objective
    evaluates, so it stays on the amplitude route rather than any
    closed-form shortcut.
    """
    v = _param_rows(params)
    out = Workspace(v.shape[:-1], xs).expectation(v)
    return out if out.ndim else out[()]
