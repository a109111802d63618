"""Decomposable elements as ordered factor lists of complex vectors.

An extensor x_1^...^x_k is kept unexpanded as its k factor vectors.  This
module expands factor lists into multivectors through k x k minors, enumerates
signed splits of the factor list, evaluates the regressive product as the two
split sums (cross-checked elsewhere against the duality route), and answers
subspace questions (rank, intersection dimension, decomposability) with plain
Gaussian elimination.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DimensionError, GradeError, SchemaError
from .multivector import SINGULAR_TOL, Multivector, _json_coeff, _result, basis_vector, wedge
from .multivector import check_coeff, check_dim, check_index, check_same_dim, check_step

Vector = tuple[complex, ...]

# complex() reads these as the numbers they are, with no need for check_coeff
_NUMBER_TYPES = frozenset((int, float, complex))


def make_vector(d: int, components: Sequence[complex]) -> Vector:
    check_dim(d)
    if len(components) != d:
        raise DimensionError(f"vector has {len(components)} components, expected {d}")
    convert = complex if _NUMBER_TYPES.issuperset(map(type, components)) else check_coeff
    out = tuple(map(convert, components))
    for c in out:
        if not cmath.isfinite(c):
            raise ValueError(f"non-finite component {c!r}")
    return out


@dataclass(frozen=True)
class ExtensorFactors:
    """Ordered factor list x_1, ..., x_k of d-dimensional complex vectors."""

    d: int
    factors: tuple[Vector, ...]

    def __post_init__(self):
        check_step(len(self.factors), check_dim(self.d), "factor count")
        object.__setattr__(
            self, "factors", tuple(make_vector(self.d, f) for f in self.factors)
        )

    @property
    def step(self) -> int:
        return len(self.factors)

    @classmethod
    def from_indices(cls, d: int, indices: Iterable[int]) -> ExtensorFactors:
        """Basis factor list (e_{i1}, ..., e_{ik}) in the order given; a
        repeated index gives a dependent list, which expands to 0."""
        check_dim(d)
        units = [tuple(1.0 + 0j if j == i else 0j for j in range(d)) for i in range(d)]
        return cls(d, tuple(units[check_index(d, i) - 1] for i in indices))

    def to_json(self) -> dict:
        return {
            "dim": self.d,
            "factors": [[{"re": c.real, "im": c.imag} for c in f] for f in self.factors],
        }

    @classmethod
    def from_json(cls, data) -> ExtensorFactors:
        try:
            d = data["dim"]
            factors = tuple(tuple(map(_json_coeff, f)) for f in data["factors"])
        except (KeyError, TypeError) as err:
            raise SchemaError(
                'a factor list is {"dim": d, "factors": [[{"re": x, "im": y}, ...], ...]}'
                f", got {data!r:.80} ({type(err).__name__}: {err})"
            ) from None
        return cls(d, factors)


@dataclass(frozen=True)
class Split:
    """Signed partition of a factor list into (part1, part2).

    The sign is the parity of the permutation that restores the original
    factor order from the concatenation part1 + part2.
    """

    sign: int
    part1: ExtensorFactors
    part2: ExtensorFactors


# ---- determinants and rank ---------------------------------------------------


def _eliminate(matrix: list[list[complex]]) -> tuple[int, complex]:
    """(rank, det) by row elimination with partial pivoting.

    Each column's pivot is the first row of largest magnitude; a pivot at
    most SINGULAR_TOL times the largest entry (or 1) is no pivot, and the
    column is skipped.  det is the signed product of the pivots when the rank
    is full, else 0j.
    """
    m = [row[:] for row in matrix]
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


def det_columns(vectors: Sequence[Vector], d: int | None = None) -> complex:
    """Determinant of the d x d matrix whose columns are the given vectors."""
    if d is None and vectors:
        d = len(vectors[0])
    if len(vectors) != check_dim(d):
        raise DimensionError(f"need exactly {d} column vectors, got {len(vectors)}")
    columns = [make_vector(d, v) for v in vectors]
    rows = [[columns[j][i] for j in range(d)] for i in range(d)]
    return _eliminate(rows)[1]


# ---- expansion ---------------------------------------------------------------


# From this many minors on, one vectorised elimination over all of them
# replaces a Python `_eliminate` per minor.  Measured, the batch wins from
# about 10 minors (d=6, k=2); 32 leaves a margin and keeps every expansion at
# d <= 6 (at most 20 minors) on `_eliminate`.
_BATCH_MINORS = 32


def expand(x: ExtensorFactors) -> Multivector:
    """Multivector of x: the k x k minor over rows S becomes the blade-S term.

    Linearly dependent factors expand to the zero multivector.
    """
    d, k = x.d, x.step
    if k == 0:
        return Multivector.vacuum(d)
    if math.comb(d, k) >= _BATCH_MINORS:
        from . import dense

        return dense.expand(x)
    return _expand_minors(x)


def _expand_minors(x: ExtensorFactors) -> Multivector:
    d, k = x.d, x.step
    terms: dict[int, complex] = {}
    for rows in combinations(range(d), k):
        minor = [[x.factors[j][i] for j in range(k)] for i in rows]
        det = _eliminate(minor)[1]
        if det:
            mask = 0
            for i in rows:
                mask |= 1 << i
            terms[mask] = det
    return _result(d, terms)


# ---- splits and the split-sum join -------------------------------------------


def enumerate_splits(x: ExtensorFactors, h: int) -> list[Split]:
    """All C(k, h) class-(h, k-h) splits of the factor list, with signs."""
    k = x.step
    check_step(h, k, "split class")
    out = []
    positions = range(k)
    for first in combinations(positions, h):
        second = tuple(p for p in positions if p not in first)
        inversions = 0
        for q in second:
            inversions += sum(1 for p in first if p > q)
        sign = -1 if inversions & 1 else 1
        out.append(
            Split(
                sign,
                ExtensorFactors(x.d, tuple(x.factors[p] for p in first)),
                ExtensorFactors(x.d, tuple(x.factors[p] for p in second)),
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
        raise ValueError(f"unknown variant {variant!r}")
    d, k, l = a.d, a.step, b.step
    total = Multivector.zero(d)
    if k + l < d:
        return total
    if variant == "first":
        for split in enumerate_splits(a, d - l):
            det = det_columns(split.part1.factors + b.factors, d)
            if det:
                total = total + split.sign * det * expand(split.part2)
    else:
        for split in enumerate_splits(b, k + l - d):
            det = det_columns(a.factors + split.part2.factors, d)
            if det:
                total = total + split.sign * det * expand(split.part1)
    return total


def triple_det(
    a: ExtensorFactors, b: ExtensorFactors, c: ExtensorFactors
) -> tuple[complex, complex, complex]:
    """Three routes to det(a, b, c) for steps summing to d.

    Returns the scalar part of a v (b ^ c), the top-blade coefficient of the
    star-complement pairing *a ^ (*b v *c), and the direct column determinant.
    All three agree; the second is the hole-picture dual of the first.
    """
    from .multivector import hodge, vee

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
    third = det_columns(a.factors + b.factors + c.factors, d)
    return first, second, third


# ---- subspace questions ------------------------------------------------------


def _column_rank(d: int, vectors: Sequence[Vector]) -> int:
    check_dim(d)
    vectors = [make_vector(d, v) for v in vectors]
    rows = [[v[i] for v in vectors] for i in range(d)]
    return _eliminate(rows)[0]


def intersection_dim(d: int, u: Sequence[Vector], w: Sequence[Vector]) -> int:
    """dim(span u intersect span w) = rank u + rank w - rank(u union w)."""
    return (
        _column_rank(d, u)
        + _column_rank(d, w)
        - _column_rank(d, tuple(u) + tuple(w))
    )


def span_covers(d: int, u: Sequence[Vector], w: Sequence[Vector]) -> bool:
    """True when span(u) + span(w) is the whole d-dimensional space."""
    return _column_rank(d, tuple(u) + tuple(w)) == d


def is_decomposable(a: Multivector) -> bool:
    """Annihilator test: a nonzero step-k element is one factor product
    exactly when {v : v ^ a = 0} has dimension k."""
    from .multivector import step_of

    k = step_of(a)
    if a.is_zero() or k is None:
        raise GradeError("decomposability needs a nonzero homogeneous input")
    d = a.d
    if k == d:
        return True
    image_blades = sorted(
        m for m in range(1 << d) if m.bit_count() == k + 1
    )
    blade_row = {m: i for i, m in enumerate(image_blades)}
    rows = [[0j] * d for _ in image_blades]
    for i in range(1, d + 1):
        column = wedge(basis_vector(d, i), a)
        for mask, c in column:
            rows[blade_row[mask]][i - 1] = c
    return d - _eliminate(rows)[0] == k
