"""Dense numpy kernels for large operands, loaded on first use.

`multivector.wedge`, `multivector.vee` and `extensors.expand` call into this
module only when their operands are large enough for it to pay (see
`multivector._dense_pays` and `_dense_fold_pays`), so few-term work never
imports or compiles it.

A dense operand is an array of 2^d complex coefficients indexed by blade
mask.  The wedge sums sign(s, t) * A[s] * B[t] into s|t over the 3^d pairs of
disjoint masks (signed disjoint-support subset convolution).  Up to
TABLE_DIM modes one cached table lists those pairs, each with its
`merge_sign`, for the wedge to walk forwards and the vee backwards; above it
the top mode e_d is split off,
    a^b = A0^B0 + (A0^B1 + A1^B0hat)^e_d   (B0hat: grade involution of B0),
so no temporary outgrows the largest table.  On this layout the star
complement is a reversal of the array, signed by `star_sign`.

`fold` is `expand`'s fold from the vacuum, one factor at a time, on the
array of the C(d, j) partial coefficients of step j.  A cached table per
(d, j) lists the fold's (blade, mode) visits in the dict fold's order, so
each step is two gathers along the table, four real products and two
`np.bincount` sums, bit for bit the dict fold's.
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
    with _quiet():
        values = _wedge_arrays(_to_array(a), _to_array(b), a.d, False)
    return _from_array(a.d, values)


def vee(a: Multivector, b: Multivector) -> Multivector:
    """hodge_inverse(wedge(hodge(a), hodge(b))) on arrays."""
    check_same_dim(a, b)
    d = a.d
    star = _star_signs(d)
    sa = (_to_array(a) * star)[::-1]
    sb = (_to_array(b) * star)[::-1]
    with _quiet():
        values = _wedge_arrays(sa, sb, d, True)
    # hodge_inverse signs each output blade with that blade's own star sign
    return _from_array(d, values[::-1] * star)


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


def fold(x) -> dict[int, complex] | None:
    """The terms of `extensors.expand`'s dict fold of the factor list x, bit
    for bit and in its key order, or None when a partial coefficient before
    the last step is exactly 0: the dict fold skips such a pair, which
    changes the order in which it first touches the blades.  So does an
    exactly-zero component, which `expand` checks before it calls this: x
    must have none.

    Step j adds the products of the C(d, j) partial coefficients with factor
    j along `_fold_table(d, j)`, in the dict fold's visit order.  Each
    product is the real and imaginary part CPython's complex multiply forms
    (numpy's complex multiply differs in the last bit), and `np.bincount`
    adds them into 0.0 in that order, as the dict fold adds them into 0j.
    """
    factors = np.array(x.factors, complex).reshape(x.step, x.d)
    values, masks = np.ones(1, complex), np.zeros(1, np.intp)
    with _quiet():
        for j, f in enumerate(factors):
            if not values.all():
                return None
            source, mode, target, sign, masks = _fold_table(x.d, j)
            a, c = values[source], f[mode]
            ar, ai, cr, ci = a.real, a.imag, c.real * sign, c.imag * sign
            n = len(masks)
            values = np.empty(n, complex)
            values.real = np.bincount(target, ar * cr - ai * ci, n)
            values.imag = np.bincount(target, ar * ci + ai * cr, n)
    return dict(zip(masks.tolist(), values.tolist()))


@cache
def _fold_table(d: int, j: int):
    """(source, mode, target, sign, masks) of step j of the fold over d modes.

    The visits of the dict fold's step j when nothing is 0, in its order:
    each step-j blade s of the previous step's masks (at position source),
    each mode i outside s, upwards.  masks lists the step-(j+1) blades in the
    order the fold first touches them, and s | e_i sits at position target;
    sign is merge_sign(s, e_i), (-1)^popcount(s >> i+1).
    """
    sources = _fold_table(d, j - 1)[4] if j else np.zeros(1, np.intp)
    source, mode = np.nonzero((sources[:, None] >> np.arange(d) & 1) == 0)
    touched = sources[source] | 1 << mode
    masks = touched[np.sort(np.unique(touched, return_index=True)[1])]
    position = np.empty(1 << d, np.intp)
    position[masks] = np.arange(len(masks))
    sign = _grade_signs(d)[sources[source] >> mode + 1]
    return tuple(map(_frozen, (source, mode, position[touched], sign, masks)))


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


def _quiet():
    """Overflow and invalid products give inf and NaN without a warning:
    `_result` names the first non-finite coefficient, as for the dict kernels."""
    return np.errstate(over="ignore", invalid="ignore")


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

