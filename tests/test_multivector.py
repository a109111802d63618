"""Core algebra: blades, wedge, star complement, join, scalar product."""

from __future__ import annotations

import random

import pytest

from excalc.errors import DimensionError, GradeError, IndexRangeError
from excalc.multivector import (
    Multivector,
    all_blades,
    basis_vector,
    combine,
    conjugate,
    covector,
    grade_project,
    hodge,
    hodge_inverse,
    indices_from_mask,
    mask_from_indices,
    mv_equal_approx,
    parity_sector,
    scalar_product,
    step_of,
    vee,
    wedge,
)
from excalc.textform import scalar_to_text
from excalc.verify import random_homogeneous, random_mv


def blade(d, *indices):
    return Multivector.from_indices(d, indices)


def wedge_sign_oracle(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Bubble-sort parity of the concatenated index list; 0 on repeats."""
    seq = list(left + right)
    if len(set(seq)) != len(seq):
        return 0
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps & 1 else 1


# ---- construction ----------------------------------------------------------------


def test_vacuum_and_top_blades():
    assert Multivector.from_indices(2, ()) == Multivector.vacuum(2)
    assert Multivector.from_indices(2, (1, 2)) == Multivector.top(2)
    assert blade(3, 1, 3).coeff((1, 3)) == 1.0


def test_index_validation():
    with pytest.raises(IndexRangeError):
        Multivector.from_indices(2, (3,))
    with pytest.raises(IndexRangeError):
        Multivector.from_indices(2, (0,))
    with pytest.raises(IndexRangeError):
        Multivector.from_indices(3, (1, 1))
    with pytest.raises(DimensionError):
        Multivector.vacuum(0)
    with pytest.raises(DimensionError):
        Multivector.vacuum(17)
    # a bool is an int to isinstance, but neither a dimension nor an index
    with pytest.raises(DimensionError):
        Multivector.vacuum(True)
    with pytest.raises(IndexRangeError):
        Multivector.from_indices(2, (True,))


def test_a_negative_mask_raises_instead_of_looping():
    # `while mask:` never ends on a negative int: each shift leaves it negative
    for mask in (-1, -8):
        with pytest.raises(IndexRangeError):
            indices_from_mask(mask)
    assert indices_from_mask(0b1010) == (2, 4)


def test_tolerance_is_a_non_negative_real():
    # every `abs(...) > nan` is False, so a NaN tolerance passed any pair
    e1, e2 = blade(2, 1), blade(2, 2)
    for tol in (float("nan"), -1e-12, True, "x", None, 1j):
        with pytest.raises(ValueError):
            mv_equal_approx(e1, e2, tol)
    assert not mv_equal_approx(e1, e2, 0.5)
    assert mv_equal_approx(e1, e2, 1) and mv_equal_approx(e1, e2, float("inf"))


def test_pruning_and_finiteness():
    assert Multivector(2, {1: 1e-13}).is_zero()
    with pytest.raises(ValueError):
        Multivector(2, {1: complex("nan")})
    with pytest.raises(ValueError):
        Multivector(2, {1: complex("inf")})


def test_overflowing_products_raise():
    # finite operands, non-finite product: only the constructor's check stops it
    big = 1e200 * basis_vector(3, 1)
    with pytest.raises(ValueError, match="non-finite"):
        wedge(big, 1e200 * basis_vector(3, 2))
    with pytest.raises(ValueError, match="non-finite"):
        big + Multivector(3, {1: 1.7e308}) + Multivector(3, {1: 1.7e308})


def test_overflowing_magnitude_raises_value_error():
    # finite parts whose magnitude abs(c) overflows the float range
    named = r"^coefficient \(1\.5e\+308\+1\.5e\+308j\) on blade mask 0x1 has no finite magnitude$"
    with pytest.raises(ValueError, match=named):
        Multivector(1, {1: 1.5e308 + 1.5e308j})
    big = Multivector(2, {0b10: 1e308})
    with pytest.raises(ValueError, match="on blade mask 0x2 has no finite magnitude"):
        big + Multivector(2, {0b10: 1.5e308j}) - Multivector(2, {0b10: 1.0})
    with pytest.raises(ValueError, match="on blade mask 0x2 has no finite magnitude"):
        combine(big, [(-1, Multivector(2, {0b10: -1.5e308j})), (1, big)])
    # magnitudes just inside the range, and at the pruning edge, are kept or pruned as before
    kept = Multivector(1, {1: 1.2e308 + 1.2e308j, 0: 1.0000001e-12})
    assert kept.terms() == {1: 1.2e308 + 1.2e308j, 0: 1.0000001e-12 + 0j}
    assert Multivector(1, {1: 0.6e-12 + 0.8e-12j}).is_zero()
    assert combine(big, [(1, Multivector(2, {0b10: 1e308j}))]).terms() == {0b10: 1e308 + 1e308j}


def test_kernel_overflow_names_the_result_blade():
    # an overflowing join names the blade of its result, here the scalar, not
    # a blade of the starred operands
    e1, e2 = basis_vector(2, 1), basis_vector(2, 2)
    scalar_blade = r"^non-finite coefficient \(inf\+0j\) on blade mask 0x0$"
    with pytest.raises(ValueError, match=scalar_blade):
        vee(1e200 * e1, 1e200 * e2)
    with pytest.raises(ValueError, match=scalar_blade):
        scalar_product(1e200 * e1, 1e200 * e1)
    with pytest.raises(ValueError, match="on blade mask 0x3 has no finite magnitude$"):
        wedge(Multivector(2, {1: 1.2e154 + 1.2e154j}), Multivector(2, {2: 1.2e154}))


def test_kernel_nan_sum_raises_and_is_not_pruned():
    # inf - inf on e1^e2: a NaN fails every magnitude comparison, including the cut
    a = 1e200 * basis_vector(2, 1) + 1e200 * basis_vector(2, 2)
    with pytest.raises(ValueError, match=r"^non-finite coefficient \(nan\+0j\) on blade mask 0x3$"):
        wedge(a, a)


def test_zero_is_not_the_vacuum():
    assert Multivector.zero(3) != Multivector.vacuum(3)
    assert Multivector.zero(3).is_zero()
    assert not Multivector.vacuum(3).is_zero()


# ---- wedge ------------------------------------------------------------------------


def test_wedge_blade_examples():
    assert wedge(blade(2, 1), blade(2, 2)) == Multivector.top(2)
    assert wedge(blade(2, 2), blade(2, 1)) == -Multivector.top(2)
    assert wedge(blade(2, 1), blade(2, 1)).is_zero()
    a = blade(4, 1, 3)
    assert wedge(a, Multivector.vacuum(4)) == a


def test_wedge_superposition_example():
    # (e1+e2)^(e2+e3) wedged with e1 keeps only the e2^e3 part
    x = wedge(blade(3, 1) + blade(3, 2), blade(3, 2) + blade(3, 3))
    assert mv_equal_approx(x, blade(3, 1, 2) + blade(3, 1, 3) + blade(3, 2, 3))
    assert mv_equal_approx(wedge(x, blade(3, 1)), Multivector.top(3))


def test_wedge_sign_matches_permutation_oracle():
    rng = random.Random(101)
    for _ in range(400):
        d = rng.randint(2, 7)
        s = rng.randrange(1 << d)
        t = rng.randrange(1 << d)
        left, right = indices_from_mask(s), indices_from_mask(t)
        got = wedge(blade(d, *left), blade(d, *right))
        sign = wedge_sign_oracle(left, right)
        if sign == 0:
            assert got.is_zero()
        else:
            assert got == Multivector(d, {s | t: complex(sign)})


def test_wedge_bilinear_antisymmetric_associative():
    rng = random.Random(102)
    for _ in range(150):
        d = rng.randint(2, 6)
        a, b, c = (random_mv(rng, d) for _ in range(3))
        s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert mv_equal_approx(
            wedge(a + s * b, c), wedge(a, c) + s * wedge(b, c), 1e-10
        )
        assert mv_equal_approx(
            wedge(wedge(a, b), c), wedge(a, wedge(b, c)), 1e-10
        )
        k, l = rng.randint(0, d), rng.randint(0, d)
        ha, hb = random_homogeneous(rng, d, k), random_homogeneous(rng, d, l)
        sign = -1 if (k * l) & 1 else 1
        assert mv_equal_approx(wedge(ha, hb), sign * wedge(hb, ha), 1e-10)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionError):
        wedge(Multivector.vacuum(2), Multivector.vacuum(3))


# ---- star complement ----------------------------------------------------------------


STAR_TABLE_D2 = {(): (1, (1, 2)), (1,): (1, (2,)), (2,): (-1, (1,)), (1, 2): (1, ())}
STAR_TABLE_D3 = {
    (): (1, (1, 2, 3)),
    (1,): (1, (2, 3)),
    (2,): (-1, (1, 3)),
    (3,): (1, (1, 2)),
    (1, 2): (1, (3,)),
    (1, 3): (-1, (2,)),
    (2, 3): (1, (1,)),
    (1, 2, 3): (1, ()),
}


@pytest.mark.parametrize("d,table", [(2, STAR_TABLE_D2), (3, STAR_TABLE_D3)])
def test_star_tables(d, table):
    for indices, (sign, comp) in table.items():
        assert hodge(blade(d, *indices)) == sign * blade(d, *comp)


def test_star_derived_d4_case():
    assert hodge(blade(4, 1, 3)) == -blade(4, 2, 4)


def test_double_star_sign():
    rng = random.Random(103)
    for _ in range(200):
        d = rng.randint(2, 8)
        k = rng.randint(0, d)
        a = random_homogeneous(rng, d, k)
        sign = -1 if (k * (d - k)) & 1 else 1
        assert mv_equal_approx(hodge(hodge(a)), sign * a, 1e-12)


def test_star_inverse():
    assert hodge_inverse(blade(2, 2)) == blade(2, 1)
    assert hodge_inverse(Multivector.top(5)) == Multivector.vacuum(5)
    rng = random.Random(104)
    for _ in range(200):
        d = rng.randint(2, 8)
        a = random_mv(rng, d)
        assert mv_equal_approx(hodge_inverse(hodge(a)), a, 1e-12)
        assert mv_equal_approx(hodge(hodge_inverse(a)), a, 1e-12)


# ---- join ---------------------------------------------------------------------------


def test_vee_blade_examples():
    assert vee(blade(2, 1), blade(2, 2)) == Multivector.vacuum(2)
    assert vee(blade(2, 2), blade(2, 1)) == -Multivector.vacuum(2)
    assert vee(blade(2, 2), Multivector.top(2)) == blade(2, 2)
    assert vee(Multivector.vacuum(2), Multivector.vacuum(2)).is_zero()
    assert vee(blade(4, 1, 2), wedge(blade(4, 3, 4), blade(4, 1))) == blade(4, 1)
    assert vee(blade(4, 1, 2), blade(4, 3)).is_zero()


def test_vee_antisymmetry_and_associativity():
    rng = random.Random(105)
    for _ in range(150):
        d = rng.randint(2, 6)
        a, b, c = (random_mv(rng, d) for _ in range(3))
        assert mv_equal_approx(vee(vee(a, b), c), vee(a, vee(b, c)), 1e-10)
        k, l = rng.randint(0, d), rng.randint(0, d)
        ha, hb = random_homogeneous(rng, d, k), random_homogeneous(rng, d, l)
        sign = -1 if ((d - k) * (d - l)) & 1 else 1
        assert mv_equal_approx(vee(ha, hb), sign * vee(hb, ha), 1e-10)


def test_de_morgan_both_directions():
    rng = random.Random(106)
    for _ in range(200):
        d = rng.randint(2, 7)
        a, b = random_mv(rng, d), random_mv(rng, d)
        assert mv_equal_approx(hodge(vee(a, b)), wedge(hodge(a), hodge(b)), 1e-10)
        assert mv_equal_approx(hodge(wedge(a, b)), vee(hodge(a), hodge(b)), 1e-10)


def test_exclusion_rule_on_blades():
    # both products survive exactly on complementary blades
    rng = random.Random(107)
    for _ in range(400):
        d = rng.randint(2, 7)
        s, t = rng.randrange(1 << d), rng.randrange(1 << d)
        a, b = Multivector(d, {s: 1.0}), Multivector(d, {t: 1.0})
        v, w = vee(a, b), wedge(a, b)
        if not v.is_zero() and not w.is_zero():
            assert t == ((1 << d) - 1) ^ s
        if s.bit_count() + t.bit_count() > d and not v.is_zero():
            assert w.is_zero()


# ---- conjugation and scalar product ----------------------------------------------------


def test_conjugate():
    a = (2 + 1j) * blade(3, 1)
    assert conjugate(a) == (2 - 1j) * blade(3, 1)
    rng = random.Random(108)
    m = random_mv(rng, 4)
    assert conjugate(conjugate(m)) == m
    assert conjugate(Multivector.zero(3)).is_zero()


def test_scalar_product_orthonormal_blades():
    for d in (2, 3, 4, 5):
        blades = all_blades(d)
        for s in blades:
            for t in blades:
                if s.bit_count() != t.bit_count():
                    continue
                got = scalar_product(Multivector(d, {s: 1.0}), Multivector(d, {t: 1.0}))
                assert abs(got - (1.0 if s == t else 0.0)) <= 1e-12


def test_scalar_product_vector_reduction():
    rng = random.Random(109)
    d = 5
    for _ in range(50):
        av = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)]
        bv = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)]
        a = sum((c * basis_vector(d, i + 1) for i, c in enumerate(av)), Multivector.zero(d))
        b = sum((c * basis_vector(d, i + 1) for i, c in enumerate(bv)), Multivector.zero(d))
        want = sum(x.conjugate() * y for x, y in zip(av, bv))
        assert abs(scalar_product(a, b) - want) <= 1e-10


def test_scalar_product_hermitian():
    rng = random.Random(110)
    for _ in range(200):
        d = rng.randint(2, 6)
        k = rng.randint(0, d)
        a = random_homogeneous(rng, d, k)
        b = random_homogeneous(rng, d, k)
        assert abs(scalar_product(a, b) - scalar_product(b, a).conjugate()) <= 1e-10


def test_scalar_product_top_blade():
    assert abs(scalar_product(Multivector.top(2), Multivector.top(2)) - 1.0) <= 1e-12


def test_scalar_product_grade_errors():
    with pytest.raises(GradeError):
        scalar_product(basis_vector(2, 1), Multivector.top(2))
    with pytest.raises(GradeError):
        scalar_product(Multivector.vacuum(2) + basis_vector(2, 1), basis_vector(2, 1))
    assert scalar_product(Multivector.zero(2), basis_vector(2, 1)) == 0j


# ---- covectors -------------------------------------------------------------------------


def test_covector_examples():
    assert covector(2, 1) == blade(2, 2)
    assert covector(3, 2) == -blade(3, 1, 3)
    assert wedge(blade(3, 2), covector(3, 1)).is_zero()


def test_covector_explicit_formula():
    for d in range(2, 9):
        for i in range(1, d + 1):
            rest = tuple(j for j in range(1, d + 1) if j != i)
            sign = -1 if (i - 1) & 1 else 1
            assert covector(d, i) == sign * blade(d, *rest)


def test_one_hole_fill_rule():
    for d in range(2, 7):
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                got = wedge(basis_vector(d, i), covector(d, j))
                want = Multivector.top(d) if i == j else Multivector.zero(d)
                assert mv_equal_approx(got, want, 1e-12)


def test_covector_join_recovers_occupied_block():
    # join of the complementary one-hole states, with the double-star sign
    for d in range(2, 9):
        for k in range(1, d):
            joined = covector(d, k + 1)
            for i in range(k + 2, d + 1):
                joined = vee(joined, covector(d, i))
            sign = -1 if (k * (d - k)) & 1 else 1
            want = sign * Multivector.from_indices(d, range(1, k + 1))
            assert mv_equal_approx(joined, want, 1e-10)
            if sign == 1:
                assert mv_equal_approx(
                    joined, Multivector.from_indices(d, range(1, k + 1)), 1e-10
                )


def test_full_covector_join_is_vacuum():
    for d in range(2, 9):
        joined = covector(d, 1)
        for i in range(2, d + 1):
            joined = vee(joined, covector(d, i))
        assert mv_equal_approx(joined, Multivector.vacuum(d), 1e-10)


# ---- grade structure ---------------------------------------------------------------------


def test_step_and_parity():
    assert step_of(blade(4, 1, 2) + Multivector.top(4)) is None
    assert parity_sector(blade(4, 1, 2) + Multivector.top(4)) == "even"
    assert parity_sector(Multivector.vacuum(4) + blade(4, 1)) == "mixed"
    assert parity_sector(blade(3, 1) + blade(3, 2)) == "odd"
    assert step_of(blade(3, 1, 3)) == 2
    assert step_of(Multivector.zero(3)) is None


def test_grade_project():
    a = Multivector.vacuum(3) + blade(3, 1) + Multivector.top(3)
    assert grade_project(a, 1) == blade(3, 1)
    assert grade_project(a, 2).is_zero()
    with pytest.raises(GradeError):
        grade_project(a, 4)


@pytest.mark.parametrize("k", [1.5, 1.0, True, False, "1", None])
def test_grade_project_wants_an_int_step(k):
    a = Multivector.vacuum(3) + blade(3, 1)
    with pytest.raises(GradeError, match="outside 0..3"):
        grade_project(a, k)


def test_mv_equal_approx():
    a = blade(3, 1)
    assert mv_equal_approx(a, a, 1e-12)
    assert not mv_equal_approx(a, blade(3, 2), 1e-12)
    assert mv_equal_approx(a, a + 1e-15 * blade(3, 1), 1e-12)


# ---- serialization -------------------------------------------------------------------------


def test_json_round_trip():
    rng = random.Random(111)
    for _ in range(50):
        a = random_mv(rng, rng.randint(1, 6))
        assert Multivector.from_json(a.to_json()) == a


def test_text_form_basics():
    assert Multivector.zero(2).to_text() == "0"
    assert Multivector.vacuum(2).to_text() == "1"
    assert Multivector.top(2).to_text() == "E"
    assert (-Multivector.top(2)).to_text() == "-E"
    assert (Multivector.vacuum(2) + blade(2, 1)).to_text() == "1 + e1"
    assert blade(3, 1, 3).to_text() == "e1^e3"


@pytest.mark.parametrize(
    "value, text",
    [(1e-13, "1e-13"), (-1, "-1"), (-1j, "-i"), (0, "0"), (-2.5 + 1j, "-2.5 + i")],
)
def test_scalar_text_is_not_pruned(value, text):
    assert scalar_to_text(complex(value)) == text


def test_mask_helpers():
    assert mask_from_indices(4, (1, 3)) == 0b101
    assert indices_from_mask(0b1010) == (2, 4)
