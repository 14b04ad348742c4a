"""Randomized self-checks of the simulator/closed-form pair.

Four suites over seeded random draws of (params, x):

* equivalence   - simulator output vs closed form, 1e-12
* normalization - unit norm of the state
* boundedness   - output inside [min(g), max(g)] with 1e-12 slack
* remainder     - cubic truncation error shrinks ~x^4 under step halving

Draw i is made from seed ``seed + i``, so any failure is reproducible in
isolation: its seven uniform doubles are exactly
``np.random.default_rng(seed + i).random(7)``. All draws are made first,
in one numpy pass over every draw seed (:func:`_random_rows`, a vectorized
copy of NumPy's SeedSequence and PCG64 streams, which NEP 19 keeps fixed
across NumPy versions), and :func:`~qubitfit.chemotaxis.map_uniform` maps
the whole ``(T, 7)`` block to raw parameter rows ``(T, 6)`` and inputs
``(T,)``, by the same law training draws its starting points from. Each
suite then runs once over the whole batch and reports its failure count
and the first failing draw in draw order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .analytic import closed_form_expectation, cubic_remainder
from .chemotaxis import N_DIM, map_uniform
from .circuit import NORM_TOL, circuit_expectation, prepare_state

EQUIV_TOL = 1e-12
BOUND_SLACK = 1e-12
RATIO_LO, RATIO_HI = 4.0, 64.0
# Below this, the quartic Taylor coefficient is effectively zero for the
# draw and the step-halving ratio measures higher-order noise, not the
# O(x^4) law; such draws are skipped. Calibrated on 30k draws: degenerate
# draws sit below 2e-11, typical draws near 1e-9.
REMAINDER_FLOOR = 1e-10
SUITE_NAMES = ("equivalence", "normalization", "boundedness", "remainder")


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    trials: int
    failures: int
    detail: str


_U32, _U64 = np.uint32, np.uint64
_MASK32 = _U64(0xFFFFFFFF)
# PCG64's 128-bit LCG multiplier: high word, low word and the low word's 32-bit limbs
_MULT_HI, _MULT_LO = 2549297995355413924, 4865540595714422341
_PCG_MULT = tuple(_U64(m) for m in (_MULT_HI, _MULT_LO, _MULT_LO & 0xFFFFFFFF, _MULT_LO >> 32))


def _hash_consts(first: int, mult: int, n: int) -> np.ndarray:
    # SeedSequence's hash constants first * mult**j mod 2**32, j < n; the same for every row
    c = [first]
    for _ in range(n - 1):
        c.append(c[-1] * mult & 0xFFFFFFFF)
    return np.array(c, _U32)[:, None]


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # SeedSequence hash rounds: value m meets consts[m] and consts[m + 1]
    v = values ^ consts[:-1]
    v *= consts[1:]
    return v ^ (v >> _U32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # SeedSequence's mix of pool word x with hashed word y
    r =_U32(0xCA01F9DD) * x - _U32(0x4973F715) * y
    return r ^ (r >> _U32(16))


def _lcg_step(hi, lo, inc_hi, inc_lo):
    # (hi, lo) * mult + inc mod 2**128; the high word of lo * mult_lo from 32-bit limbs
    m_hi, m_lo, m0, m1 = _PCG_MULT
    lo0, lo1 = lo & _MASK32, lo >> _U64(32)
    p00, p01, p10 = lo0 * m0, lo0 * m1, lo1 * m0
    mid = (p00 >> _U64(32)) + (p01 & _MASK32) + (p10 & _MASK32)
    mul_hi = lo1 * m1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    new_lo = lo * m_lo + inc_lo
    new_hi = hi * m_lo + lo * m_hi + mul_hi + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _random_rows(seed: int, trials: int, k: int) -> np.ndarray:
    """Row i is ``np.random.default_rng(seed + i).random(k)``, computed for all rows at once.

    A copy of NumPy's SeedSequence (4-word pool) and PCG64 (XSL-RR output)
    over arrays, one lane per draw seed. All arithmetic wraps on typed
    uint32/uint64 arrays, so no scalar overflow warns and numpy 1.x
    promotes nothing to float.
    """
    # 32-bit entropy words of seed + i, least significant first, zero-padded
    # to the pool; a carry out of the low word picks the high words' row
    low = _U64(seed & 0xFFFFFFFF) + np.arange(trials, dtype=_U64)
    carry = (low >> _U64(32)).astype(np.intp)
    highs = [(seed >> 32) + c for c in range(int(carry[-1]) + 1)]
    width = 1 + max(3, *((h.bit_length() + 31) // 32 for h in highs))
    table = [[h >> 32 * j & 0xFFFFFFFF for j in range(width - 1)] for h in highs]
    words = np.empty((width, trials), _U32)
    words[0] = low & _MASK32
    words[1:] = np.array(table, _U32)[carry].T
    n_words = np.array([1 + (h.bit_length() + 31) // 32 for h in highs])[carry]

    # SeedSequence.mix_entropy: hash the pool, cross-mix it, then mix in the
    # words beyond the pool on the rows whose seed has them. One source word
    # meets the other pool words with consecutive constants, so its hashes
    # are computed together.
    ca = _hash_consts(0x43B0D7E5, 0x931E8875, 17 + 4 * (width - 4))
    pool = _hash(words[:4], ca[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        n = 4 + 3 * src
        pool[dst] = _mix(pool[dst], _hash(pool[src], ca[n : n + 4]))
    for src in range(4, width):
        n = 16 + 4 * (src - 4)
        pool = np.where(n_words > src, _mix(pool, _hash(words[src], ca[n : n + 5])), pool)

    # generate_state(4, uint64): eight hashed words, paired little-endian
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_consts(0x8B51F9DD, 0x58F38DED, 9))
    state = state.astype(_U64)
    s_hi, s_lo, q_hi, q_lo = state[0::2] | (state[1::2] << _U64(32))

    # PCG64 seeding: inc = (seq << 1) | 1, step from 0, add the seed, step
    inc_hi, inc_lo = (q_hi << _U64(1)) | (q_lo >> _U64(63)), (q_lo << _U64(1)) | _U64(1)
    lo = inc_lo + s_lo
    hi, lo = _lcg_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)

    # each draw: step, XSL-RR output, top 53 bits scaled to [0, 1)
    u = np.empty((trials, k))
    for j in range(k):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _U64(58)
        out = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
        u[:, j] = (out >> _U64(11)) * 2.0**-53
    return u


def _draws(trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw parameter rows ``(trials, 6)`` and inputs ``(trials,)``.

    Draw i is mapped from ``np.random.default_rng(seed + i).random(7)``,
    bit for bit, computed for all draws in one numpy pass
    (:func:`_random_rows`); NEP 19 keeps those streams fixed across NumPy
    versions, so the copy stays exact.
    """
    u = _random_rows(seed, trials, N_DIM + 1)
    map_uniform(u)
    return u[:, :N_DIM], u[:, N_DIM]


def _collect(name: str, seed: int, failed: np.ndarray, why) -> SuiteResult:
    """Result of one suite from its per-draw failure mask; ``why(i)`` explains draw i."""
    trials = len(failed)
    (index,) = np.nonzero(failed)
    if index.size == 0:
        return SuiteResult(name, True, trials, 0, "ok")
    i = int(index[0])
    return SuiteResult(
        name, False, trials, index.size, f"first failure at draw seed {seed + i}: {why(i)}"
    )


def run_suites(trials: int, seed: int) -> list[SuiteResult]:
    """Run all four suites on the same ``trials`` draws.

    ``trials`` and ``seed`` must be integers (``int`` or ``np.integer``);
    anything else, a float included, raises ``ValueError``.
    """
    try:
        trials, seed = operator.index(trials), operator.index(seed)
    except TypeError:
        raise ValueError(f"trials and seed must be integers, got {trials!r} and {seed!r}") from None
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rows, xs = _draws(trials, seed)
    results = []

    # one simulator evaluation serves both the equivalence and the
    # boundedness suite
    sim = circuit_expectation(rows, xs)
    diff = np.abs(sim - closed_form_expectation(rows, xs))
    # written so that a NaN difference fails
    results.append(_collect(
        "equivalence", seed, ~(diff <= EQUIV_TOL), lambda i: f"|sim - closed| = {diff[i]:.3e}"
    ))

    # norms from the real amplitude rows, so an unnormalized state is a
    # failure of this suite; a NaN norm fails too
    amp = prepare_state(rows, xs)
    norm_err = np.abs((amp * amp).sum(axis=1) - 1.0)
    results.append(_collect(
        "normalization", seed, ~(norm_err <= NORM_TOL),
        lambda i: f"| |psi|^2 - 1 | = {norm_err[i]:.3e}",
    ))

    lo, hi = rows[:, 2:].min(axis=1), rows[:, 2:].max(axis=1)
    results.append(_collect(
        "boundedness", seed, ~((lo - BOUND_SLACK <= sim) & (sim <= hi + BOUND_SLACK)),
        lambda i: f"value {float(sim[i])!r} outside [{float(lo[i])!r}, {float(hi[i])!r}]",
    ))

    # both steps in one call, so the cubic coefficients are computed once
    r1, r2 = cubic_remainder(rows, np.array([[1e-2], [2e-2]]))
    # a draw with either remainder below the floor has no measurable
    # fourth-order signal and is skipped; no division happens for it
    measured = ~(np.minimum(r1, r2) < REMAINDER_FLOOR)
    ratio = np.divide(r2, r1, out=np.zeros(trials), where=measured)
    results.append(_collect(
        "remainder", seed, measured & ~((RATIO_LO <= ratio) & (ratio <= RATIO_HI)),
        lambda i: f"remainder ratio {ratio[i]:.3f} outside [4, 64]",
    ))

    return results
