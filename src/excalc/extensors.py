"""Decomposable elements as ordered factor lists of complex vectors.

An extensor x_1^...^x_k is kept unexpanded as its k factor vectors.  This
module expands a factor list into its multivector as the wedge of its
factors, enumerates signed splits of the factor list, evaluates the
regressive product as the two split sums (cross-checked elsewhere against the
duality route), answers rank, intersection dimension and determinants with
plain Gaussian elimination, and decomposability with joins and `expand`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import combinations

from .errors import DimensionError, GradeError
from .multivector import SINGULAR_TOL, Multivector, _dense_fold_pays, _echo, _json_coeff, _reading
from .multivector import _Record, _result
from .multivector import combine, hodge, merge_sign, mv_equal_approx, step_of, vee, wedge
from .multivector import check_coeff, check_dim, check_index, check_same_dim, check_step

Vector = tuple[complex, ...]


def make_vector(d: int, components: Sequence[complex]) -> Vector:
    """A d-component vector, each component through check_coeff.  Vectors
    are checked here, where they enter the module, and trusted inside it."""
    check_dim(d)
    if len(components) != d:
        raise DimensionError(f"vector has {len(components)} components, expected {d}")
    return tuple(map(check_coeff, components))


class ExtensorFactors(_Record):
    """Immutable ordered factor list x_1, ..., x_k of d-dimensional complex vectors."""

    __slots__ = __match_args__ = ("d", "factors")

    def __new__(cls, d: int, factors: tuple[Vector, ...]):
        check_step(len(factors), check_dim(d), "factor count")
        return cls._build(d, tuple(make_vector(d, f) for f in factors))

    @property
    def step(self) -> int:
        return len(self.factors)

    @classmethod
    def from_indices(cls, d: int, indices: Iterable[int]) -> ExtensorFactors:
        """Basis factor list (e_{i1}, ..., e_{ik}) in the order given; a
        repeated index gives a dependent list, which expands to 0."""
        check_dim(d)
        units = [tuple(1.0 + 0j if j == i else 0j for j in range(d)) for i in range(d)]
        factors = tuple(units[check_index(d, i) - 1] for i in indices)
        check_step(len(factors), d, "factor count")
        return cls._build(d, factors)

    def to_json(self) -> dict:
        return {
            "dim": self.d,
            "factors": [[{"re": c.real, "im": c.imag} for c in f] for f in self.factors],
        }

    @classmethod
    def from_json(cls, data) -> ExtensorFactors:
        form = 'a factor list is {"dim": d, "factors": [[{"re": x, "im": y}, ...], ...]}'
        with _reading(form, data):
            d = data["dim"]
            factors = tuple(tuple(map(_json_coeff, f)) for f in data["factors"])
        return cls(d, factors)


Split = namedtuple("Split", "sign part1 part2")
Split.__doc__ = """Signed partition of a factor list into (part1, part2).

The sign is the parity of the permutation that restores the original
factor order from the concatenation part1 + part2.
"""


# ---- determinants and rank ---------------------------------------------------


def _eliminate(matrix: Sequence[Sequence[complex]]) -> tuple[int, complex]:
    """(rank, det) by row elimination with partial pivoting, on a copy of
    the rows.  A matrix and its transpose share both, so callers pass their
    vectors as the rows.

    Each column's pivot is the first row of largest magnitude; a pivot at
    most SINGULAR_TOL times the largest entry (or 1) is no pivot, and the
    column is skipped.  det is the signed product of the pivots when the rank
    is full, else 0j.
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    biggest = max((abs(c) for row in m for c in row), default=0.0)
    threshold = SINGULAR_TOL * max(biggest, 1.0)
    rank, det = 0, 1.0 + 0j
    for col in range(cols):
        if rank == rows:
            break
        pivot = max(range(rank, rows), key=lambda r: abs(m[r][col]))
        if abs(m[pivot][col]) <= threshold:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][col]
        for r in range(rank + 1, rows):
            f = m[r][col] / m[rank][col]
            for c in range(col, cols):
                m[r][c] -= f * m[rank][c]
        rank += 1
    return rank, det if rank == rows else 0j


def det_columns(vectors: Sequence[Vector]) -> complex:
    """Determinant of the d x d matrix whose columns are the d given vectors."""
    d = check_dim(len(vectors))
    return _eliminate([make_vector(d, v) for v in vectors])[1]


# ---- expansion ---------------------------------------------------------------


def expand(x: ExtensorFactors) -> Multivector:
    """Multivector of x = x_1 ^ ... ^ x_k: the k x k minor over rows S is
    the blade-S coefficient.

    A fold from the vacuum that wedges on one factor vector at a time, with
    the pair order and sums of the dict `wedge`.  Only exact zeros are
    dropped on the way and `_result` prunes once, at the end, so a badly
    scaled list keeps coefficients that a pruned partial product would lose,
    in any factor order.  expand(x) equals the iterated wedge of the
    factors' Multivectors whenever no component and no partial coefficient
    lies in (0, PRUNE_TOL], and products and sums keep Gaussian-integer
    factors exact.  A list whose rank (the rank `_column_rank` takes) is
    below its step expands to the zero multivector.  Past the cut of
    `_dense_fold_pays` (only lists of more than 8 modes reach it) the fold
    runs on arrays in `dense.fold`, with the same products and sums in the
    same order, so the result, its term order and its errors are the same.
    """
    if _eliminate(x.factors)[0] < x.step:
        return Multivector.zero(x.d)
    terms = None
    if _dense_fold_pays(x.d, x.step):
        from . import dense

        terms = dense.fold(x)
    return _result(x.d, _fold(x.factors) if terms is None else terms)


def _fold(factors: Sequence[Vector]) -> dict[int, complex]:
    """The blade terms of the wedge of the factors, by the fold `expand` describes."""
    # not `_wedge_dict`, which calls merge_sign once per pair: walking the
    # sign inline ran the dense-kernels benchmark at 1.2x its calls/s
    terms = {0: 1 + 0j}
    for f in factors:
        vector = [(1 << i, c) for i, c in enumerate(f)]
        out: dict[int, complex] = {}
        get = out.get
        for s, a in terms.items():
            if not a:
                continue
            # s ^ e_i has the sign (-1)^popcount(s >> i+1): start from the
            # parity of s and flip it at each mode of s passed on the way up
            if s.bit_count() & 1:
                a = -a
            for bit, c in vector:
                if s & bit:
                    a = -a
                elif c:
                    u = s | bit
                    out[u] = get(u, 0j) + a * c
        terms = out
    return terms


# ---- splits and the split-sum join -------------------------------------------


def enumerate_splits(x: ExtensorFactors, h: int) -> list[Split]:
    """All C(k, h) class-(h, k-h) splits of the factor list, with signs: the
    sign of a split is the merge sign of its two position masks."""
    k = x.step
    check_step(h, k, "split class")
    out = []
    positions = range(k)
    for first in combinations(positions, h):
        second = tuple(p for p in positions if p not in first)
        sign = merge_sign(sum(1 << p for p in first), sum(1 << p for p in second))
        out.append(
            Split(
                sign,
                ExtensorFactors._build(x.d, tuple(x.factors[p] for p in first)),
                ExtensorFactors._build(x.d, tuple(x.factors[p] for p in second)),
            )
        )
    return out


def join_by_splits(
    a: ExtensorFactors, b: ExtensorFactors, variant: str = "first"
) -> Multivector:
    """Regressive product of two factor lists as a signed split sum.

    variant "first" splits the left operand into (d-l, k+l-d) pieces and sums
    sign * det(part1, b) * expand(part2); variant "second" splits the right
    operand into (k+l-d, d-k) pieces and sums sign * det(a, part2) * expand(part1).
    Both give 0 outright when the steps together fall short of d.
    """
    check_same_dim(a, b)
    if variant not in ("first", "second"):
        raise ValueError(f"unknown variant {_echo(variant)}")
    d, k, l = a.d, a.step, b.step
    if k + l < d:
        return Multivector.zero(d)
    # each step: the split's sign, the determinant's rows, the list to expand
    if variant == "first":
        splits = enumerate_splits(a, d - l)
        steps = ((s.sign, s.part1.factors + b.factors, s.part2) for s in splits)
    else:
        splits = enumerate_splits(b, k + l - d)
        steps = ((s.sign, a.factors + s.part2.factors, s.part1) for s in splits)
    terms = (
        (1, sign * det * expand(rest))
        for sign, rows, rest in steps
        if (det := _eliminate(rows)[1])
    )
    return combine(Multivector.zero(d), terms)


def triple_det(
    a: ExtensorFactors, b: ExtensorFactors, c: ExtensorFactors
) -> tuple[complex, complex, complex]:
    """Three routes to det(a, b, c) for steps summing to d.

    Returns the scalar part of a v (b ^ c), the top-blade coefficient of the
    star-complement pairing *a ^ (*b v *c), and the direct column determinant.
    All three agree; the second is the hole-picture dual of the first.
    """
    check_same_dim(a, b)
    check_same_dim(a, c)
    d = a.d
    if a.step + b.step + c.step != d:
        raise GradeError(
            f"steps {a.step}+{b.step}+{c.step} must sum to the dimension {d}"
        )
    am, bm, cm = expand(a), expand(b), expand(c)
    first = vee(am, wedge(bm, cm)).coeff_mask(0)
    second = wedge(hodge(am), vee(hodge(bm), hodge(cm))).coeff_mask((1 << d) - 1)
    third = _eliminate(a.factors + b.factors + c.factors)[1]
    return first, second, third


# ---- subspace questions ------------------------------------------------------


def _column_rank(d: int, vectors: Sequence[Vector]) -> int:
    """Rank of the given vectors, each checked as a d-component vector."""
    check_dim(d)
    return _eliminate([make_vector(d, v) for v in vectors])[0]


def intersection_dim(d: int, u: Iterable[Vector], w: Iterable[Vector]) -> int:
    """dim(span u intersect span w) = rank u + rank w - rank(u union w)."""
    u, w = tuple(u), tuple(w)
    return _column_rank(d, u) + _column_rank(d, w) - _column_rank(d, u + w)


def span_covers(d: int, u: Sequence[Vector], w: Sequence[Vector]) -> bool:
    """True when span(u) + span(w) is the whole d-dimensional space."""
    return _column_rank(d, tuple(u) + tuple(w)) == d


def is_decomposable(a: Multivector) -> bool:
    """Plücker test on b = a / a_S, S the blade of a's largest |coefficient|:
    a nonzero step-k a is one factor product exactly when the k vectors
    f_j = b v *e_(S without j), its joins with hole states for the modes j of
    S in ascending order, give f_1 ^ ... ^ f_k = (-1)^C(k,2) b.  b's largest
    coefficient is 1, so that compare at PRUNE_TOL is relative to a's."""
    k = step_of(a)
    if a.is_zero() or k is None:
        raise GradeError("decomposability needs a nonzero homogeneous input")
    d = a.d
    top, peak = max(a._terms.items(), key=lambda term: abs(term[1]))
    b = a * (1 / peak)
    joins = (vee(b, hodge(_result(d, {top ^ (1 << j): 1 + 0j}))) for j in range(d) if top >> j & 1)
    factors = tuple(tuple(f._terms.get(1 << i, 0j) for i in range(d)) for f in joins)
    plucker = expand(ExtensorFactors._build(d, factors))
    return mv_equal_approx(plucker, (-1) ** (k * (k - 1) // 2) * b)
