"""Dense numpy kernels for large operands, loaded on first use.

`multivector.wedge` and `multivector.vee` call into this module only when
their operands are large enough for it to pay (see
`multivector._dense_pays`), so few-term work never imports or compiles it.

A dense operand is an array of 2^d complex coefficients indexed by blade
mask.  The wedge sums sign(s, t) * A[s] * B[t] into s|t over the 3^d pairs of
disjoint masks (signed disjoint-support subset convolution).  Up to
TABLE_DIM modes one cached table lists those pairs, each with its
`merge_sign`, for the wedge to walk forwards and the vee backwards; above it
the top mode e_d is split off,
    a^b = A0^B0 + (A0^B1 + A1^B0hat)^e_d   (B0hat: grade involution of B0),
so no temporary outgrows the largest table.  On this layout the star
complement is a reversal of the array, signed by `star_sign`.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .multivector import Multivector, _prefix_parity, _result, check_same_dim, star_sign

# A 3^9-entry table (0.6 MB) beat a 3^10 one by 1.4-1.8x at d=12 and d=14
# and tied it at d=10.
TABLE_DIM = 9


def wedge(a: Multivector, b: Multivector) -> Multivector:
    check_same_dim(a, b)
    return _from_array(a.d, _wedge_arrays(_to_array(a), _to_array(b), a.d, False))


def vee(a: Multivector, b: Multivector) -> Multivector:
    """hodge_inverse(wedge(hodge(a), hodge(b))) on arrays."""
    check_same_dim(a, b)
    d = a.d
    star = _star_signs(d)
    sa = (_to_array(a) * star)[::-1]
    sb = (_to_array(b) * star)[::-1]
    # hodge_inverse signs each output blade with that blade's own star sign
    return _from_array(d, _wedge_arrays(sa, sb, d, True)[::-1] * star)


def _wedge_arrays(a, b, d: int, reverse: bool):
    """Dense wedge of two 2^d coefficient arrays.

    reverse walks the one pair table backwards through `[::-1]` views; the
    dense vee uses it.  The star reverses the mask order, so the reversed walk
    adds the products of a v b in the order of the operands' own masks, the
    order in which the dense wedge adds those of a ^ b.  A forward walk would
    make the dense vee bit-equal to hodge_inverse(wedge(hodge(a), hodge(b))),
    but x ^ *x and (x v *x) E would then add their products in different
    orders and drift apart: the seeded identity run of the acceptance suite
    (seed 502, trial 855) meets 1.17e-10 at d=8, past IDENTITY_TOL.
    """
    n = 1 << d
    if d <= TABLE_DIM:
        s, t, u, sign = (x[::-1] if reverse else x for x in _pair_table(d))
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
def _pair_table(d: int):
    """(s, t, s|t, sign) over all disjoint mask pairs of d modes, one table per d.

    The zero cells of the grid s & t, row by row, in (s, t) order; the vee walks them backwards.
    The sign is `merge_sign(s, t)`, from the same prefix parity of s.
    """
    masks = np.arange(1 << d, dtype=np.int16)
    s, t = np.nonzero(masks[:, None] & masks == 0)
    sign = _grade_signs(d)[_prefix_parity(s) & t]
    return _frozen(s), _frozen(t), _frozen(s | t), _frozen(sign)


@cache
def _grade_signs(d: int):
    """(-1)^|m| for every mask m of d modes."""
    return _frozen(np.array([-1.0 if m.bit_count() & 1 else 1.0 for m in range(1 << d)]))


@cache
def _star_signs(d: int):
    """The star sign of every mask m of d modes."""
    return _frozen(np.array([float(star_sign(m)) for m in range(1 << d)]))


def _frozen(x):
    x.setflags(write=False)
    return x


def _to_array(a: Multivector):
    terms, n = a._terms, len(a)
    out = np.zeros(1 << a.d, complex)
    out[np.fromiter(terms, np.intp, n)] = np.fromiter(terms.values(), complex, n)
    return out


def _from_array(d: int, values) -> Multivector:
    return _result(d, dict(enumerate(values.tolist())))

