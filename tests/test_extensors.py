"""Factor lists: expansion, determinants, splits, joins, subspace tests."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from excalc import extensors
from excalc.errors import DimensionError, GradeError, IndexRangeError, SchemaError
from excalc.extensors import (
    ExtensorFactors,
    Split,
    _column_rank,
    _eliminate,
    det_columns,
    enumerate_splits,
    expand,
    intersection_dim,
    is_decomposable,
    join_by_splits,
    span_covers,
    triple_det,
)
from excalc.multivector import (
    PRUNE_TOL,
    SINGULAR_TOL,
    Multivector,
    basis_vector,
    combine,
    hodge,
    indices_from_mask,
    mv_equal_approx,
    step_of,
    vee,
    wedge,
)
from excalc.qubits import QubitState, bits_to_mask, parse_basis_state
from excalc.verify import random_coeff, random_factors, random_vector
from oracles import sort_sign

EPS = sys.float_info.epsilon


def basis_factors(d, *indices):
    return ExtensorFactors.from_indices(d, indices)


def cofactor_det(matrix: list[list[complex]]) -> complex:
    """O(n!) cofactor expansion along the first row."""
    n = len(matrix)
    if n == 0:
        return 1.0 + 0j
    if n == 1:
        return matrix[0][0]
    total = 0j
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        sign = -1 if j & 1 else 1
        total += sign * matrix[0][j] * cofactor_det(minor)
    return total


# ---- determinant -------------------------------------------------------------------


def test_det_identity_and_permutation():
    assert det_columns(basis_factors(4, 1, 2, 3, 4).factors) == 1
    assert det_columns(basis_factors(3, 2, 1, 3).factors) == -1
    for perm in permutations(range(1, 4)):
        sign = cofactor_det(
            [[1.0 + 0j if perm[j] == i + 1 else 0j for j in range(3)] for i in range(3)]
        )
        assert det_columns(basis_factors(3, *perm).factors) == sign


def test_det_matches_cofactor_oracle():
    rng = random.Random(201)
    for _ in range(60):
        n = rng.randint(1, 5)
        cols = [random_vector(rng, n) for _ in range(n)]
        rows = [[cols[j][i] for j in range(n)] for i in range(n)]
        assert abs(det_columns(cols) - cofactor_det(rows)) <= 1e-9


def test_det_singular_and_count_errors():
    v = (1 + 0j, 2 + 0j, 3 + 0j)
    assert det_columns([v, v, (0j, 1 + 0j, 0j)]) == 0j
    with pytest.raises(DimensionError):
        det_columns([v, v])
    with pytest.raises(DimensionError):
        det_columns([])


def test_det_columns_checks_each_column():
    for bad in (float("nan"), float("inf"), complex(0, float("-inf"))):
        with pytest.raises(ValueError, match="non-finite coefficient"):
            det_columns([(1, bad), (3, 4)])
    with pytest.raises(DimensionError, match="vector has 3 components, expected 2"):
        det_columns([(1, 2), (3, 4, 5)])
    assert det_columns([(1, 2), (3, 4)]) == -2


def pivot_rank(matrix: list[list[complex]]) -> int:
    """The rank-only elimination that `_eliminate` replaced, kept as an oracle:
    in each column, the first row of largest magnitude above the threshold pivots."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    biggest = max((abs(c) for row in m for c in row), default=0.0)
    threshold = SINGULAR_TOL * max(biggest, 1.0)
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if abs(m[r][col]) > threshold and (
                pivot is None or abs(m[r][col]) > abs(m[pivot][col])
            ):
                pivot = r
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, rows):
            f = m[r][col] / m[rank][col]
            for c in range(col, cols):
                m[r][c] -= f * m[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank


# few distinct entries, so repeated and zero rows and columns are common
ENTRIES = st.sampled_from([0j, 1 + 0j, -1 + 0j, 2 + 0j, 1j, 0.5 - 1.5j, 1e-13 + 0j])


@st.composite
def matrices(draw):
    """Square and rectangular matrices up to 6 x 6, often rank-deficient."""
    rows = draw(st.integers(0, 6))
    cols = rows if draw(st.booleans()) else draw(st.integers(1, 6))
    entries = st.one_of(ENTRIES, st.complex_numbers(max_magnitude=2, allow_nan=False))
    row = st.lists(entries, min_size=cols, max_size=cols)
    matrix = draw(st.lists(row, min_size=rows, max_size=rows))
    if rows >= 2 and draw(st.booleans()):
        scale = draw(ENTRIES)
        matrix[-1] = [scale * c for c in matrix[0]]
    return matrix


@settings(max_examples=200)
@given(matrices())
def test_one_elimination_gives_the_old_rank_and_a_det_zero_exactly_below_full_rank(matrix):
    rank, det = _eliminate(matrix)
    assert rank == pivot_rank(matrix)
    if len(matrix) == len(matrix[0] if matrix else []):
        assert (det == 0) == (rank < len(matrix))


class GaussianRational:
    """re + i im with Fraction parts: exact arithmetic for Gaussian-integer matrices."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def exact_quotient(a: int, b: int) -> int:
    q, r = divmod(a, b)
    assert r == 0, "a Bareiss division left a remainder"
    return q


def bareiss(matrix: list[list], divide) -> tuple[int, object]:
    """Exact (rank, det) of a square matrix by fraction-free elimination
    (Bareiss), skipping a column with no nonzero entry left.  Every entry
    stays a minor of the matrix, so `divide` by the last pivot is exact."""
    m = [list(row) for row in matrix]
    n = len(m)
    rank, odd, last = 0, False, None
    for col in range(n):
        pivot = next((r for r in range(rank, n) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            odd = not odd
        p = m[rank][col]
        for r in range(rank + 1, n):
            for c in range(col + 1, n):
                entry = p * m[r][c] - m[r][col] * m[rank][c]
                m[r][c] = entry if last is None else divide(entry, last)
        last, rank = p, rank + 1
    if rank < n:
        return rank, 0
    return rank, -last if odd else last


def test_bareiss_oracle_on_known_matrices():
    assert bareiss([[2, 1], [4, 2]], exact_quotient) == (1, 0)
    assert bareiss([[0, 1], [1, 0]], exact_quotient) == (2, -1)
    vandermonde = [[(r + 1) ** c for c in range(4)] for r in range(4)]
    assert bareiss(vandermonde, exact_quotient) == (4, 12)
    rank, det = bareiss(
        [[GaussianRational(0, 1), GaussianRational(1)], [GaussianRational(1), GaussianRational(0, 1)]],
        GaussianRational.__truediv__,
    )
    assert rank == 2 and complex(det) == -2  # i * i - 1 * 1


@st.composite
def exact_matrices(draw):
    """(n, entries as (re, im) int pairs, Gaussian or not): n <= 7, parts in
    -3..3, and often some rows made integer combinations of the others."""
    n = draw(st.integers(1, 7))
    gaussian = draw(st.booleans())
    part = st.integers(-3, 3)
    entry = st.tuples(part, part if gaussian else st.just(0))
    matrix = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    for r in range(n - draw(st.integers(0, n - 1)), n):
        weights = draw(st.lists(entry, min_size=r, max_size=r))
        matrix[r] = [
            (
                sum(w[0] * row[c][0] - w[1] * row[c][1] for w, row in zip(weights, matrix)),
                sum(w[0] * row[c][1] + w[1] * row[c][0] for w, row in zip(weights, matrix)),
            )
            for c in range(n)
        ]
    return n, matrix, gaussian


@settings(max_examples=300)
@given(exact_matrices())
def test_eliminate_matches_the_exact_rank_and_det(case):
    n, matrix, gaussian = case
    if gaussian:
        rank, det = bareiss(
            [[GaussianRational(*e) for e in row] for row in matrix], GaussianRational.__truediv__
        )
    else:
        rank, det = bareiss([[e[0] for e in row] for row in matrix], exact_quotient)
    want = complex(det)
    rows = [[complex(*e) for e in row] for row in matrix]
    columns = [list(col) for col in zip(*rows)]
    for given_matrix in (rows, columns):
        got_rank, got_det = _eliminate(given_matrix)
        assert got_rank == rank
        assert (got_det == 0j) == (rank < n)
        if rank == n:
            assert abs(got_det - want) <= 1e-11 * abs(want)


# ---- expansion ----------------------------------------------------------------------


def test_expand_superposition_example():
    x = ExtensorFactors(3, ((1, 1, 0), (0, 1, 1)))
    want = (
        Multivector.from_indices(3, (1, 2))
        + Multivector.from_indices(3, (1, 3))
        + Multivector.from_indices(3, (2, 3))
    )
    assert mv_equal_approx(expand(x), want, 1e-12)


def test_expand_dependent_factors_vanish():
    e1 = (1 + 0j, 0j, 0j)
    assert expand(ExtensorFactors(3, (e1, e1))).is_zero()


def test_from_indices_rejects_an_index_outside_the_dimension():
    for bad in (0, 4, -1, True, 1.0, "1"):
        with pytest.raises(IndexRangeError):
            ExtensorFactors.from_indices(3, (bad,))
    with pytest.raises(DimensionError):
        ExtensorFactors.from_indices(0, ())
    # a repeated index is a dependent list, not an error
    assert expand(basis_factors(3, 2, 2)).is_zero()
    assert expand(basis_factors(3, 3, 1)) == -Multivector.from_indices(3, (1, 3))


def test_expand_empty_is_vacuum():
    assert expand(ExtensorFactors(4, ())) == Multivector.vacuum(4)


def test_expand_equals_iterated_wedge():
    rng = random.Random(202)
    for trial in range(60):
        d = rng.randint(1, 10)
        k = rng.randint(1, d)
        x = random_factors(rng, d, k)
        if trial % 2:  # zero components, which the factor's Multivector drops
            x = ExtensorFactors(
                d, tuple(tuple(c if rng.random() < 0.7 else 0j for c in f) for f in x.factors)
            )
        chain = Multivector.vacuum(d)
        for f in x.factors:
            vec = Multivector(d, {1 << i: c for i, c in enumerate(f)})
            chain = wedge(chain, vec)
        if _column_rank(d, x.factors) < k:
            assert expand(x).is_zero()
        else:
            assert expand(x) == chain


def test_expand_multilinear_and_alternating():
    rng = random.Random(203)
    for _ in range(40):
        d = rng.randint(2, 5)
        k = rng.randint(1, d)
        base = random_factors(rng, d, k)
        slot = rng.randrange(k)
        u, w = random_vector(rng, d), random_vector(rng, d)
        a, b = random_coeff(rng), random_coeff(rng)
        mixed = tuple(
            tuple(a * x + b * y for x, y in zip(u, w)) if i == slot else f
            for i, f in enumerate(base.factors)
        )
        with_u = tuple(u if i == slot else f for i, f in enumerate(base.factors))
        with_w = tuple(w if i == slot else f for i, f in enumerate(base.factors))
        lhs = expand(ExtensorFactors(d, mixed))
        rhs = a * expand(ExtensorFactors(d, with_u)) + b * expand(ExtensorFactors(d, with_w))
        assert mv_equal_approx(lhs, rhs, 1e-10)

        perm = list(range(k))
        rng.shuffle(perm)
        swaps = sum(
            1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j]
        )
        sign = -1 if swaps & 1 else 1
        shuffled = ExtensorFactors(d, tuple(base.factors[p] for p in perm))
        assert mv_equal_approx(expand(shuffled), sign * expand(base), 1e-10)


@st.composite
def factor_lists(draw):
    """Generic, rank-deficient and near-singular factor lists, and whether
    every minor is singular.

    The last factor is replaced by a combination of two others plus a
    perturbation of the given size: 0 is exactly dependent, 1e-14 falls under
    the SINGULAR_TOL cut-off and 1e-9 stays well above it.
    """
    d = draw(st.integers(1, 10))
    k = draw(st.integers(1, d))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    factors = [random_vector(rng, d) for _ in range(k)]
    size = draw(st.sampled_from((None, 0.0, 1e-14, 1e-9)))
    if size is not None and k >= 3:
        u, w = factors[0], factors[1]
        p, q = random_coeff(rng), random_coeff(rng)
        factors[-1] = tuple(
            p * x + q * y + size * random_coeff(rng) for x, y in zip(u, w)
        )
    singular = size is not None and size < 1e-12 and k >= 3
    return ExtensorFactors(d, tuple(factors)), singular


def det_bound(x: ExtensorFactors) -> float:
    """k^2 eps times the Hadamard bound on every k x k minor."""
    k = x.step
    hadamard = prod(sum(abs(c) ** 2 for c in f) ** 0.5 for f in x.factors)
    return PRUNE_TOL + k * k * EPS * max(1.0, hadamard)


def minor_masks(d: int, k: int):
    """(blade mask, rows) of every k-row subset of d rows."""
    for rows in combinations(range(d), k):
        yield sum(1 << i for i in rows), rows


@given(factor_lists())
def test_expand_matches_the_per_minor_determinants(case):
    x, singular = case
    d, k = x.d, x.step
    per_minor = Multivector(d, {
        mask: det_columns([tuple(f[i] for i in rows) for f in x.factors])
        for mask, rows in minor_masks(d, k)
    })
    got = expand(x)
    assert mv_equal_approx(got, per_minor, det_bound(x))
    if singular:
        assert got.is_zero() and per_minor.is_zero()


def test_expand_keeps_badly_scaled_lists_in_every_order():
    """No partial product is pruned: a full-rank list with two 1e-6 factors
    and a 1e3 one expands to its ~1e-9 minors, not to zero, and every order
    of the factors gives the same result up to the permutation's sign."""
    rng = random.Random(204)
    cases = [ExtensorFactors(3, ((1e-6, 0, 0), (0, 1e-6, 0), (0, 0, 1e3)))]
    for _ in range(12):
        d = rng.randint(3, 6)
        scales = (1e-6, 1e-6, 1e3, 1.0, 1.0)[: rng.randint(3, min(d, 5))]
        cases.append(ExtensorFactors(
            d, tuple(tuple(s * c for c in random_vector(rng, d)) for s in scales)
        ))
    for x in cases:
        d, k = x.d, x.step
        base = expand(x)
        per_minor = Multivector(d, {
            mask: det_columns([tuple(f[i] for i in rows) for f in x.factors])
            for mask, rows in minor_masks(d, k)
        })
        assert not base.is_zero()
        assert mv_equal_approx(base, per_minor, det_bound(x))
        tol = 1e-9 * max(abs(c) for _, c in base)
        for sign, perm in signed_permutations(k):
            shuffled = ExtensorFactors(d, tuple(x.factors[p] for p in perm))
            assert mv_equal_approx(expand(shuffled), sign * base, tol)


@cache
def signed_permutations(n: int) -> list[tuple[int, tuple[int, ...]]]:
    return [
        ((-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)), p)
        for p in permutations(range(n))
    ]


def leibniz_det(matrix: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """Exact determinant of a matrix of Gaussian integers held as (re, im)
    pairs of Python ints: the Leibniz sum over permutations."""
    total_re = total_im = 0
    for sign, p in signed_permutations(len(matrix)):
        re, im = sign, 0
        for row, col in enumerate(p):
            a, b = matrix[row][col]
            re, im = re * a - im * b, re * b + im * a
        total_re += re
        total_im += im
    return total_re, total_im


@st.composite
def gaussian_factor_lists(draw):
    """(d, factors): k <= 5 factors of d <= 8 Gaussian integers with parts in -3..3."""
    d = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(d, 5)))
    part = st.integers(-3, 3)
    vector = st.lists(st.tuples(part, part), min_size=d, max_size=d)
    return d, draw(st.lists(vector, min_size=k, max_size=k))


@given(gaussian_factor_lists())
def test_expand_is_exact_on_gaussian_integers(case):
    d, factors = case
    x = ExtensorFactors(d, tuple(tuple(complex(*c) for c in f) for f in factors))
    want = {}
    for mask, rows in minor_masks(d, len(factors)):
        det = leibniz_det([[f[i] for f in factors] for i in rows])
        if det != (0, 0):
            want[mask] = complex(*det)
    assert expand(x).terms() == want

# ---- splits --------------------------------------------------------------------------


def test_enumerate_splits_two_factors():
    x = random_factors(random.Random(204), 3, 2)
    splits = enumerate_splits(x, 1)
    assert [s.sign for s in splits] == [1, -1]
    assert splits[0].part1.factors == (x.factors[0],)
    assert splits[1].part1.factors == (x.factors[1],)


def test_enumerate_splits_extremes():
    x = random_factors(random.Random(205), 4, 3)
    only, = enumerate_splits(x, 0)
    assert only == Split(1, ExtensorFactors(4, ()), x)
    only, = enumerate_splits(x, 3)
    assert only == Split(1, x, ExtensorFactors(4, ()))


@pytest.mark.parametrize("h", [True, False, 1.0, 0.0, "1", None])
def test_split_class_is_an_int(h):
    x = random_factors(random.Random(207), 3, 2)
    with pytest.raises(GradeError, match=f"split class {h!r} outside 0..2"):
        enumerate_splits(x, h)


def test_split_signs_restore_original_order():
    rng = random.Random(206)
    for _ in range(30):
        d = rng.randint(2, 6)
        k = rng.randint(1, d)
        h = rng.randint(0, k)
        x = random_factors(rng, d, k)
        splits = enumerate_splits(x, h)
        assert len(splits) == _binom(k, h)
        for s in splits:
            rebuilt = wedge(expand(s.part1), expand(s.part2))
            assert mv_equal_approx(s.sign * rebuilt, expand(x), 1e-9)


@pytest.mark.parametrize("k", range(9))
def test_split_signs_are_the_inversion_count(k):
    d = max(k, 1)
    x = ExtensorFactors.from_indices(d, range(1, k + 1))
    for h in range(k + 1):
        want = []
        for first in combinations(range(k), h):
            second = tuple(p for p in range(k) if p not in first)
            parts = tuple(x.factors[p] for p in first), tuple(x.factors[p] for p in second)
            want.append((sort_sign(first, second), *parts))
        got = [(s.sign, s.part1.factors, s.part2.factors) for s in enumerate_splits(x, h)]
        assert got == want


def _binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# ---- the split-sum join ---------------------------------------------------------------


def test_join_worked_examples():
    x = ExtensorFactors(3, ((1, 1, 0), (0, 1, 1)))
    z = basis_factors(3, 1, 2)
    want = -Multivector.from_indices(3, (1,)) - Multivector.from_indices(3, (2,))
    assert mv_equal_approx(join_by_splits(x, z, "first"), want, 1e-12)
    assert mv_equal_approx(join_by_splits(x, z, "second"), want, 1e-12)

    got = join_by_splits(basis_factors(3, 1, 3), basis_factors(3, 1, 2))
    assert got == -Multivector.from_indices(3, (1,))

    assert join_by_splits(basis_factors(4, 1, 2), basis_factors(4, 3)).is_zero()


def test_join_variants_and_duality_agree():
    rng = random.Random(207)
    for _ in range(200):
        d = rng.randint(2, 6)
        k = rng.randint(0, d)
        l = rng.randint(0, d)
        a, b = random_factors(rng, d, k), random_factors(rng, d, l)
        first = join_by_splits(a, b, "first")
        second = join_by_splits(a, b, "second")
        dual = vee(expand(a), expand(b))
        assert mv_equal_approx(first, second, 1e-9)
        assert mv_equal_approx(first, dual, 1e-9)


def chained_join(a: ExtensorFactors, b: ExtensorFactors, variant: str) -> Multivector:
    """The running `total +` sum join_by_splits took before `combine`, kept as
    an oracle."""
    d, k, l = a.d, a.step, b.step
    total = Multivector.zero(d)
    if k + l < d:
        return total
    if variant == "first":
        for split in enumerate_splits(a, d - l):
            det = _eliminate(split.part1.factors + b.factors)[1]
            if det:
                total = total + split.sign * det * expand(split.part2)
    else:
        for split in enumerate_splits(b, k + l - d):
            det = _eliminate(a.factors + split.part2.factors)[1]
            if det:
                total = total + split.sign * det * expand(split.part1)
    return total


def gaussian_factors(rng: random.Random, d: int, k: int) -> ExtensorFactors:
    """k factors of d Gaussian integers with parts in -3..3."""
    part = partial(rng.randint, -3, 3)
    vectors = (tuple(complex(part(), part()) for _ in range(d)) for _ in range(k))
    return ExtensorFactors(d, tuple(vectors))


@pytest.mark.parametrize("d", range(2, 10))
def test_join_sums_as_the_chained_sum_did(d):
    rng = random.Random(209 + d)
    nonzero = 0
    for draw in (random_factors, gaussian_factors) * 6:
        k = rng.randint(1, d)
        l = rng.randint(d - k, d)
        a, b = draw(rng, d, k), draw(rng, d, l)
        for variant in ("first", "second"):
            want = [(m, c.real.hex(), c.imag.hex()) for m, c in chained_join(a, b, variant)]
            got = join_by_splits(a, b, variant)
            assert [(m, c.real.hex(), c.imag.hex()) for m, c in got] == want
            nonzero += bool(want)
    assert nonzero >= 12


def test_join_complementary_steps_is_determinant():
    rng = random.Random(208)
    for _ in range(80):
        d = rng.randint(2, 6)
        k = rng.randint(0, d)
        a, b = random_factors(rng, d, k), random_factors(rng, d, d - k)
        got = join_by_splits(a, b)
        det = det_columns(a.factors + b.factors)
        assert mv_equal_approx(got, Multivector.scalar(d, det), 1e-9)


def test_join_rejects_an_unknown_variant_before_the_step_shortcut():
    a = basis_factors(3, 1)  # steps 1 + 1 fall short of d = 3
    with pytest.raises(ValueError, match="bogus"):
        join_by_splits(a, a, "bogus")


def test_join_dimension_mismatch():
    with pytest.raises(DimensionError):
        join_by_splits(basis_factors(3, 1), basis_factors(4, 1))


# ---- three-way determinant identity ------------------------------------------------------


def test_triple_det_basis_examples():
    got = triple_det(basis_factors(3, 1), basis_factors(3, 2), basis_factors(3, 3))
    assert all(abs(v - 1.0) <= 1e-12 for v in got)
    got = triple_det(basis_factors(3, 2), basis_factors(3, 1), basis_factors(3, 3))
    assert all(abs(v + 1.0) <= 1e-12 for v in got)


def test_triple_det_random_agreement():
    rng = random.Random(209)
    for _ in range(60):
        d = rng.randint(2, 6)
        a_step = rng.randint(0, d - 1)
        b_step = rng.randint(0, d - a_step)
        c_step = d - a_step - b_step
        a, b, c = (random_factors(rng, d, s) for s in (a_step, b_step, c_step))
        one, two, three = triple_det(a, b, c)
        assert abs(one - three) <= 1e-9
        assert abs(two - three) <= 1e-9


def test_checked_factor_lists_are_not_checked_again(monkeypatch):
    """The joins and triple_det run on factor lists that ExtensorFactors has
    checked, so they call make_vector on none of their vectors; the public
    det_columns still checks each one."""
    rng = random.Random(212)
    a, b = random_factors(rng, 10, 6), random_factors(rng, 10, 6)
    x, y, z = (random_factors(rng, 8, k) for k in (3, 3, 2))
    real, calls = extensors.make_vector, []

    def counted(d, components):
        calls.append(d)
        return real(d, components)

    monkeypatch.setattr(extensors, "make_vector", counted)
    join_by_splits(a, b, "first")
    join_by_splits(a, b, "second")
    triple_det(x, y, z)
    assert calls == []
    det_columns(x.factors + y.factors + z.factors)
    assert calls == [8] * 8


def test_triple_det_step_sum_error():
    with pytest.raises(GradeError):
        triple_det(basis_factors(3, 1), basis_factors(3, 2), basis_factors(3, 3, 1))


# ---- subspace semantics ---------------------------------------------------------------------


def test_intersection_examples():
    u = basis_factors(3, 1, 2).factors
    w = basis_factors(3, 2, 3).factors
    assert intersection_dim(3, u, w) == 1
    assert span_covers(3, u, w)
    assert not span_covers(3, basis_factors(3, 1).factors, basis_factors(3, 2).factors)


def test_intersection_dim_reads_one_shot_iterators_once():
    assert intersection_dim(3, iter([(1, 0, 0)]), iter([(1, 0, 0)])) == 1


@pytest.mark.parametrize("query", [intersection_dim, span_covers])
def test_subspace_queries_check_their_vectors(query):
    with pytest.raises(DimensionError):
        query(0, [], [])
    with pytest.raises(DimensionError):
        query(2, [(1,)], [])
    with pytest.raises(DimensionError):
        query(2, [(1, 2, 3)], [])
    with pytest.raises(DimensionError):
        query(2, [], [(1, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="non-finite"):
        query(2, [(1, float("nan"))], [])
    with pytest.raises(ValueError, match="non-finite"):
        query(2, [(1, 0)], [(float("inf"), 0)])


def _factors_with_shared(rng, d, k, l, shared):
    """Two factor lists whose spans share (at least) `shared` directions."""
    u = random_factors(rng, d, k)
    w_vecs = []
    for _ in range(shared):
        mix = [0j] * d
        for f in u.factors:
            c = random_coeff(rng)
            mix = [m + c * x for m, x in zip(mix, f)]
        w_vecs.append(tuple(mix))
    while len(w_vecs) < l:
        w_vecs.append(random_vector(rng, d))
    return u, ExtensorFactors(d, tuple(w_vecs))


def test_wedge_vanishes_iff_spans_intersect():
    rng = random.Random(210)
    for _ in range(200):
        d = rng.randint(2, 6)
        k = rng.randint(1, d - 1)
        l = rng.randint(1, d - k + min(k, 1))
        l = min(l, d)
        shared = rng.randint(0, min(k, l)) if rng.random() < 0.5 else 0
        u, w = _factors_with_shared(rng, d, k, l, shared)
        product = wedge(expand(u), expand(w))
        overlap = intersection_dim(d, u.factors, w.factors)
        if k + l > d:
            assert overlap > 0
        if overlap > 0:
            assert all(abs(c) <= 1e-8 for _, c in product)
        else:
            assert any(abs(c) > 1e-8 for _, c in product)


def test_join_lands_in_the_intersection():
    rng = random.Random(211)
    checked = 0
    while checked < 120:
        d = rng.randint(2, 6)
        k = rng.randint(1, d - 1)
        shared = rng.randint(1, k)
        l = min(d, d - k + shared)
        u, w = _factors_with_shared(rng, d, k, l, shared)
        if not span_covers(d, u.factors, w.factors):
            continue
        joined = vee(expand(u), expand(w))
        assert not joined.is_zero()
        scale = max(abs(c) for _, c in joined)
        for v in w.factors[:shared]:
            vec = Multivector(d, {1 << i: c for i, c in enumerate(v)})
            leftover = wedge(vec, joined)
            assert all(abs(c) <= 1e-8 * max(scale, 1.0) for _, c in leftover)
        checked += 1


# ---- decomposability --------------------------------------------------------------------------


def test_expanded_factor_lists_are_decomposable():
    rng = random.Random(212)
    for _ in range(60):
        d = rng.randint(2, 6)
        k = rng.randint(1, d)
        x = expand(random_factors(rng, d, k))
        if x.is_zero():
            continue
        assert is_decomposable(x)


def test_two_term_sum_is_not_decomposable():
    a = Multivector.from_indices(4, (1, 2)) + Multivector.from_indices(4, (3, 4))
    assert not is_decomposable(a)


def test_extreme_grades_always_decomposable():
    rng = random.Random(213)
    for _ in range(40):
        d = rng.randint(2, 6)
        for k in (1, d - 1):
            masks = [m for m in range(1 << d) if m.bit_count() == k]
            terms = {m: random_coeff(rng) for m in rng.sample(masks, min(3, len(masks)))}
            a = Multivector(d, terms)
            if a.is_zero():
                continue
            assert is_decomposable(a)


def test_decomposability_rejects_bad_inputs():
    with pytest.raises(GradeError):
        is_decomposable(Multivector.zero(3))
    with pytest.raises(GradeError):
        is_decomposable(Multivector.vacuum(3) + Multivector.from_indices(3, (1,)))


def annihilator_decomposable(a: Multivector) -> bool:
    """The annihilator-rank `is_decomposable` that the Plücker test replaced,
    kept as an oracle: a nonzero step-k element is one factor product
    exactly when {v : v ^ a = 0} has dimension k."""
    k = step_of(a)
    if a.is_zero() or k is None:
        raise GradeError("decomposability needs a nonzero homogeneous input")
    d = a.d
    if k == d:
        return True
    image_blades = [m for m in range(1 << d) if m.bit_count() == k + 1]
    blade_row = {m: i for i, m in enumerate(image_blades)}
    rows = [[0j] * d for _ in image_blades]
    for i in range(1, d + 1):
        column = wedge(basis_vector(d, i), a)
        for mask, c in column._terms.items():
            rows[blade_row[mask]][i - 1] = c
    return d - _eliminate(rows)[0] == k


def drawn_factors(rng: random.Random, d: int, k: int, gaussian: bool) -> ExtensorFactors:
    """k factors of d components: Gaussian integers with parts in -3..3, or floats."""
    if gaussian:
        return gaussian_factors(rng, d, k)
    return random_factors(rng, d, k)


def drawn_step_k(rng: random.Random, d: int, k: int, gaussian: bool, products: int) -> Multivector:
    """The sum of `products` expanded factor lists of step k."""
    terms = ((1, expand(drawn_factors(rng, d, k, gaussian))) for _ in range(products))
    return combine(Multivector.zero(d), terms)


@st.composite
def decomposability_cases(draw):
    """A single product or a sum of two, Gaussian-integer or float, at
    d = 1..8 and k = 0..d; a zero draw is discarded."""
    d = draw(st.integers(1, 8))
    k = draw(st.integers(0, d))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    a = drawn_step_k(rng, d, k, draw(st.booleans()), draw(st.integers(1, 2)))
    assume(not a.is_zero())
    return a


@settings(max_examples=150)
@given(decomposability_cases())
def test_plucker_test_agrees_with_the_annihilator_rank(a):
    assert is_decomposable(a) == annihilator_decomposable(a)


@pytest.mark.parametrize("d", range(9, 13))
def test_plucker_test_agrees_with_the_annihilator_rank_up_to_d12(d):
    rng = random.Random(215 + d)
    for products in (1, 2):
        for gaussian in (True, False):
            a = drawn_step_k(rng, d, rng.randint(2, d - 2), gaussian, products)
            assert is_decomposable(a) == annihilator_decomposable(a) == (products == 1)


@st.composite
def full_rank_factor_lists(draw):
    """Factor lists of rank k at d = 1..8, k = 0..d, Gaussian-integer or float."""
    d = draw(st.integers(1, 8))
    k = draw(st.integers(0, d))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    x = drawn_factors(rng, d, k, draw(st.booleans()))
    assume(_column_rank(d, x.factors) == k)
    return x


@given(full_rank_factor_lists())
def test_the_joins_with_hole_states_span_the_factors(x):
    """The k vectors b v *e_(S without j) of a = expand(x), built here from
    vee and hodge, span the same k-plane as x's factors."""
    d, k = x.d, x.step
    a = expand(x)
    top, peak = max(a, key=lambda term: abs(term[1]))
    b = a * (1 / peak)
    rows = []
    for j in indices_from_mask(top):
        hole = hodge(Multivector(d, {top & ~(1 << (j - 1)): 1}))
        f = vee(b, hole)
        rows.append(tuple(f.coeff((i,)) for i in range(1, d + 1)))
    assert _column_rank(d, rows) == k
    assert intersection_dim(d, rows, x.factors) == k


def kets(*bits: str) -> QubitState:
    return QubitState(len(bits[0]), {bits_to_mask(parse_basis_state(b)): 1 for b in bits})


def two_planes(x: complex, y: complex) -> Multivector:
    """x e1^e2 + y e3^e4 at d = 4."""
    return Multivector(4, {0b0011: x, 0b1100: y})


@pytest.mark.parametrize(
    "a, want",
    [
        *((Multivector.scalar(d, 2j), True) for d in range(1, 17)),
        *((Multivector.top(d) * -3, True) for d in range(1, 17)),
        (kets("1100", "0011"), False),
        (kets("1100", "1010"), True),
        # the threshold is relative to the largest coefficient
        (two_planes(1, 1e-11), False),
        (two_planes(1e3, 1e-11), True),
        (two_planes(1e6, 1e-7), True),
        (two_planes(1e6, 5e-6), False),
        (two_planes(1e-6, 2e-12), False),
    ],
    ids=repr,
)
def test_decomposability_pins(a, want):
    assert is_decomposable(a) is want


# ---- serialization ------------------------------------------------------------------------------


def test_factor_json_round_trip():
    rng = random.Random(214)
    x = random_factors(rng, 4, 3)
    assert ExtensorFactors.from_json(x.to_json()) == x


@pytest.mark.parametrize(
    "data",
    [
        {"x": 1},
        {"dim": 3, "factors": [[1, 2, 3]]},
        {"dim": 3, "factors": 5},
        {"dim": 2, "factors": [[{"re": 1}, {"re": 0, "im": 0}]]},
        [1, 2],
    ],
)
def test_factor_json_schema_errors_are_typed(data):
    with pytest.raises(SchemaError):
        ExtensorFactors.from_json(data)


@pytest.mark.parametrize(
    "cls, data",
    [
        (Multivector, {"x": 1}),
        (Multivector, {"dim": 3, "terms": [[1, 2]]}),
        (Multivector, {"dim": 3, "terms": [{"blade": [1], "re": 1}]}),
        (Multivector, [1, 2]),
        (QubitState, {"d": 2}),
        (QubitState, {"d": 2, "amps": [["10", 1, 0]]}),
        (QubitState, {"d": 2, "amps": [{"bits": "10", "im": 0}]}),
        (QubitState, "d"),
    ],
)
def test_state_json_schema_errors_are_typed(cls, data):
    with pytest.raises(SchemaError):
        cls.from_json(data)


@pytest.mark.parametrize(
    "cls, data, error",
    [
        (Multivector, {"dim": True, "terms": [{"blade": [], "re": 1, "im": 0}]}, DimensionError),
        (Multivector, {"dim": 2, "terms": [{"blade": [True], "re": 1, "im": 0}]}, IndexRangeError),
        (QubitState, {"d": True, "amps": [{"bits": "1", "re": 1, "im": 0}]}, DimensionError),
        (ExtensorFactors, {"dim": True, "factors": [[{"re": 1, "im": 0}]]}, DimensionError),
        (Multivector, {"dim": 2, "terms": [{"blade": [1], "re": True, "im": 0}]}, SchemaError),
        (QubitState, {"d": 2, "amps": [{"bits": "10", "re": 0, "im": False}]}, SchemaError),
        (
            ExtensorFactors,
            {"dim": 2, "factors": [[{"re": True, "im": 0}, {"re": 0, "im": 0}]]},
            SchemaError,
        ),
    ],
)
def test_json_rejects_a_bool_as_dimension_or_index(cls, data, error):
    with pytest.raises(error):
        cls.from_json(data)
