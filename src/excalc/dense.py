"""Dense numpy kernels for large operands, loaded on first use.

`multivector.wedge`, `multivector.vee` and `extensors.expand` call into this
module only when their operands are large enough for it to pay (see
`multivector._dense_pays` and `extensors._BATCH_MINORS`), so few-term work
never imports or compiles it.

A dense operand is an array of 2^d complex coefficients indexed by blade
mask.  The wedge sums sign(s, t) * A[s] * B[t] into s|t over the 3^d pairs of
disjoint masks (signed disjoint-support subset convolution).  Up to
TABLE_DIM modes the pairs come from one cached table; above it the top mode
e_d is split off,
    a^b = A0^B0 + (A0^B1 + A1^B0hat)^e_d   (B0hat: grade involution of B0),
so no temporary outgrows the largest table.  On this layout the star
complement is a signed reversal of the array.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

import numpy as np

from .extensors import ExtensorFactors
from .multivector import PRUNE_TOL, SINGULAR_TOL, Multivector, hodge_blade

# A 3^9-entry table (0.6 MB) beat a 3^10 one by 1.4-1.8x at d=12 and d=14
# and tied it at d=10.
TABLE_DIM = 9


def wedge(a: Multivector, b: Multivector) -> Multivector:
    return _from_array(a.d, _wedge_arrays(_to_array(a), _to_array(b), a.d, False))


def vee(a: Multivector, b: Multivector) -> Multivector:
    """hodge_inverse(wedge(hodge(a), hodge(b))) on arrays."""
    d = a.d
    star, inverse = _star_signs(d)
    sa = (_to_array(a) * star)[::-1]
    sb = (_to_array(b) * star)[::-1]
    return _from_array(d, (_wedge_arrays(sa, sb, d, True) * inverse)[::-1])


def _wedge_arrays(a, b, d: int, reverse: bool):
    """Dense wedge of two 2^d coefficient arrays.

    reverse walks the pair table backwards.  The dense vee needs it: there
    the star maps mask s to its complement, so only the reversed walk adds
    the products of each output term in the order the dense wedge adds them.
    """
    n = 1 << d
    if d <= TABLE_DIM:
        s, t, u, sign = _pair_table(d, reverse)
        prod = a[s] * b[t]
        prod *= sign
        out = np.empty(n, complex)
        out.real = np.bincount(u, prod.real, n)
        out.imag = np.bincount(u, prod.imag, n)
        return out
    half = n >> 1
    a0, a1, b0, b1 = a[:half], a[half:], b[:half], b[half:]
    out = np.empty(n, complex)
    out[:half] = _wedge_arrays(a0, b0, d - 1, reverse)
    out[half:] = _wedge_arrays(a0, b1, d - 1, reverse)
    out[half:] += _wedge_arrays(a1, b0 * _grade_signs(d - 1), d - 1, reverse)
    return out


@cache
def _pair_table(d: int, reverse: bool = False):
    """(s, t, s|t, sign) over all disjoint mask pairs of d modes.

    Ordered by (s, t), or the exact reverse.  Built from the d-1 table by the
    top-mode split: (s, t), (s, t|top) and (s|top, t) with sign * (-1)^|t|.
    """
    if reverse:
        return tuple(_frozen(x[::-1].copy()) for x in _pair_table(d))
    if d == 0:
        s = t = np.zeros(1, np.intp)
        sign = np.ones(1)
    else:
        s0, t0, _, sign0 = _pair_table(d - 1)
        top = 1 << (d - 1)
        s = np.concatenate((s0, s0, s0 | top))
        t = np.concatenate((t0, t0 | top, t0))
        sign = np.concatenate((sign0, sign0, sign0 * _grade_signs(d - 1)[t0]))
        order = np.lexsort((t, s))
        s, t, sign = s[order], t[order], sign[order]
    return _frozen(s), _frozen(t), _frozen(s | t), _frozen(sign)


@cache
def _grade_signs(d: int):
    """(-1)^|m| for every mask m of d modes."""
    return _frozen(np.array([-1.0 if m.bit_count() & 1 else 1.0 for m in range(1 << d)]))


@cache
def _star_signs(d: int):
    """Per mask m: the star sign of m, and the sign that inverts the star on m."""
    star = np.array([float(hodge_blade(d, m)[0]) for m in range(1 << d)])
    double = np.array([-1.0 if (m.bit_count() * (d - m.bit_count())) & 1 else 1.0
                       for m in range(1 << d)])
    return _frozen(star), _frozen(star * double)


def _frozen(x):
    x.setflags(write=False)
    return x


def _to_array(a: Multivector):
    terms, n = a.terms(), len(a)
    out = np.zeros(1 << a.d, complex)
    out[np.fromiter(terms, np.intp, n)] = np.fromiter(terms.values(), complex, n)
    return out


def _from_array(d: int, values) -> Multivector:
    keep = np.flatnonzero(np.abs(values) > PRUNE_TOL)
    return Multivector(d, dict(zip(keep.tolist(), values[keep].tolist())))


# ---- batched expand --------------------------------------------------------------


def expand(x: ExtensorFactors) -> Multivector:
    """`extensors.expand` with all C(d, k) minors in one elimination."""
    row_sets = np.array(list(combinations(range(x.d), x.step)))
    minors = np.array(x.factors).T[row_sets]
    masks = (1 << row_sets).sum(axis=1)
    return Multivector(x.d, dict(zip(masks.tolist(), _det_stack(minors).tolist())))


def _det_stack(minors):
    """`extensors._det` of every matrix in an (n, k, k) stack, in one elimination.

    Same pivot choice (first largest magnitude), same per-matrix singular
    threshold and the same exact zero for a matrix found singular.
    """
    m = np.array(minors, complex)
    n, k = m.shape[:2]
    every = np.arange(n)
    threshold = SINGULAR_TOL * np.maximum(np.abs(m).max(axis=(1, 2)), 1.0)
    det = np.ones(n, complex)
    alive = np.ones(n, bool)
    for col in range(k):
        magnitude = np.abs(m[:, col:, col])
        pivot = col + magnitude.argmax(axis=1)
        alive &= magnitude.max(axis=1) > threshold
        swapped = pivot != col
        det[swapped] = -det[swapped]
        pivot_rows = m[every, pivot]
        m[every, pivot] = m[:, col]
        m[:, col] = pivot_rows
        det *= m[:, col, col]
        # a singular matrix is done; divide its rows by 1, not by its tiny pivot
        diagonal = np.where(alive, m[:, col, col], 1.0)
        factor = m[:, col + 1:, col] / diagonal[:, None]
        m[:, col + 1:, col:] -= factor[:, :, None] * m[:, None, col, col:]
    return np.where(alive, det, 0j)
