"""Factor lists: expansion, determinants, splits, joins, subspace tests."""

from __future__ import annotations

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excalc.errors import DimensionError, GradeError, IndexRangeError, SchemaError
from excalc.extensors import (
    ExtensorFactors,
    Split,
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
from excalc.multivector import SINGULAR_TOL, Multivector, mv_equal_approx, vee, wedge
from excalc.qubits import QubitState
from excalc.verify import random_coeff, random_factors, random_vector


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
        assert abs(det_columns(cols, n) - cofactor_det(rows)) <= 1e-9


def test_det_singular_and_count_errors():
    v = (1 + 0j, 2 + 0j, 3 + 0j)
    assert det_columns([v, v, (0j, 1 + 0j, 0j)], 3) == 0j
    with pytest.raises(DimensionError):
        det_columns([v, v], 3)
    with pytest.raises(DimensionError):
        det_columns([], None)


def test_det_columns_checks_each_column():
    for bad in (float("nan"), float("inf"), complex(0, float("-inf"))):
        with pytest.raises(ValueError, match="non-finite component"):
            det_columns([(1, bad), (3, 4)], 2)
    with pytest.raises(DimensionError, match="vector has 3 components, expected 2"):
        det_columns([(1, 2), (3, 4, 5)], 2)
    assert det_columns([(1, 2), (3, 4)], 2) == -2


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
    for _ in range(60):
        d = rng.randint(2, 6)
        k = rng.randint(1, d)
        x = random_factors(rng, d, k)
        chain = Multivector.vacuum(d)
        for f in x.factors:
            vec = Multivector(d, {1 << i: c for i, c in enumerate(f)})
            chain = wedge(chain, vec)
        assert mv_equal_approx(expand(x), chain, 1e-9)


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


def test_join_complementary_steps_is_determinant():
    rng = random.Random(208)
    for _ in range(80):
        d = rng.randint(2, 6)
        k = rng.randint(0, d)
        a, b = random_factors(rng, d, k), random_factors(rng, d, d - k)
        got = join_by_splits(a, b)
        det = det_columns(a.factors + b.factors, d)
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
