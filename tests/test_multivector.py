"""Core algebra: blades, wedge, star complement, join, scalar product."""

from __future__ import annotations

import math
import operator
import random
import sys
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from excalc.errors import DimensionError, GradeError, IndexRangeError
from excalc.expr import Blade, ScalarMul, Wedge, _one_term
from excalc.multivector import (
    MAX_DIM,
    PRUNE_TOL,
    Multivector,
    _canonical,
    _echo,
    _pruned,
    _result,
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
from excalc.textform import _labels, scalar_to_text
from excalc.verify import random_homogeneous, random_mv
from oracles import blade, hex_terms, positions, sort_sign


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
    # a term that makes two sums non-finite: its own first one is named
    with pytest.raises(ValueError, match=r"^non-finite coefficient \(inf\+0j\) on blade mask 0x2$"):
        combine(Multivector(2, {1: 1e308, 2: 1e308}), [(1, Multivector(2, {2: 1e308, 1: 1e308}))])


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
        sign = sort_sign(left, right)
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


def test_scalar_product_names_the_inhomogeneous_operand():
    e1, e12 = blade(3, 1), blade(3, 1, 2)
    with pytest.raises(GradeError, match="^left operand is not homogeneous$"):
        scalar_product(e1 + e12, e1)
    with pytest.raises(GradeError, match="^right operand is not homogeneous$"):
        scalar_product(e1, e1 + e12)


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
    [(1e-13, "1e-13"), (-1, "-1"), (-1j, "-i"), (0, "0"), (-2.5 + 1j, "-2.5 + i"), (1 - 1e-14j, "1")],
)
def test_scalar_text_drops_only_a_tiny_part_beside_a_larger_one(value, text):
    assert scalar_to_text(complex(value)) == text


def test_mask_helpers():
    assert mask_from_indices(4, (1, 3)) == 0b101
    assert indices_from_mask(0b1010) == (2, 4)


def test_byte_tables_give_every_mask_the_bit_loops_indices_labels_and_order():
    masks = range(1 << MAX_DIM)
    # the bit loop the tables replace: each set bit's position, lowest first
    walked = [tuple(p + 1 for p in positions(m)) for m in masks]
    assert [indices_from_mask(m) for m in masks] == walked
    assert _labels(masks) == ["^".join(f"e{i}" for i in ix) for ix in walked]
    assert sorted(masks, key=_canonical) == sorted(masks, key=lambda m: (len(walked[m]), walked[m]))


def _full_repr(n: int) -> str:
    """repr(n) with the interpreter's limit on decimal conversion lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return repr(n)
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=100)
@example(1, 10**5000)
@example(-1, 10**200)
@example(1, 2**300 - 1)  # the longest int quoted through repr
@example(1, 2**300)  # the shortest divided down first
@example(-1, 2**301 - 1)
@example(-1, 10**90 - 1)
@given(st.sampled_from([1, -1]), st.integers(0, 6000).map(lambda k: 10**k).flatmap(
    lambda top: st.integers(top, 10 * top - 1))
)
def test_an_int_of_any_length_is_quoted_as_its_repr_cut_at_80_characters(sign, size):
    text = _full_repr(sign * size)
    assert _echo(sign * size) == (text if len(text) <= 80 else text[:80] + "...")


# 10**200 and 10**5000 quoted: the first 80 characters of the repr, then `...`
_CUT, _CUT_NEGATIVE = "1" + "0" * 79 + "...", "-1" + "0" * 78 + "..."


@pytest.mark.parametrize(
    "call, error, quote",
    [
        (lambda: Multivector.vacuum(10**5000), DimensionError, _CUT),
        (lambda: Multivector(2, {10**5000: 1}), IndexRangeError, _CUT),
        (lambda: Multivector(2, {1: -(10**5000)}), ValueError, _CUT_NEGATIVE),
        (lambda: grade_project(blade(3, 1), 10**200), GradeError, _CUT),
        (lambda: Multivector(3, {10**200: 1}), IndexRangeError, _CUT),
        (lambda: basis_vector(3, -(10**5000)), IndexRangeError, _CUT_NEGATIVE),
        (lambda: mv_equal_approx(blade(3, 1), blade(3, 1), -(10**5000)), ValueError, _CUT_NEGATIVE),
    ],
    ids=["dim", "mask", "coeff", "step-200-digits", "mask-200-digits", "index", "tolerance"],
)
def test_a_huge_int_argument_is_a_typed_error_quoting_80_characters(call, error, quote):
    with pytest.raises(error) as got:
        call()
    assert quote in str(got.value) and len(str(got.value)) <= 140


# Values at and around every edge of the prune rule, beside ordinary ones:
# PRUNE_TOL and its neighbours, signed zeros, subnormals, NaN, inf, and
# finite parts whose magnitude is near or past the float range.
_EDGE_COEFFS = st.sampled_from(
    [0j, -0j, complex(-0.0, 0.0), 1e-12 + 0j, complex(0, -1e-12), 0.6e-12 + 0.8e-12j,
     complex(math.nextafter(PRUNE_TOL, 1), 0), complex(0, math.nextafter(PRUNE_TOL, 0)),
     1e-13 + 0j, complex(5e-324, 0), complex(0, -5e-324), complex(math.nan, 0),
     complex(0, math.nan), complex(0, math.inf), complex(-math.inf, 1), complex(1e308, 1e308),
     complex(1.5e308, 1.5e308), complex(1.7e308, 1.7e308), 1e308 + 0j, -0.5 + 0j, 2j]
)
_COEFFS = st.one_of(st.complex_numbers(max_magnitude=1e6, allow_nan=False), _EDGE_COEFFS)
# What combine adds the drawn terms to: a sum on mask 1 or 2 can overflow or
# cancel, one on mask 3 land on PRUNE_TOL.
_FIRST = Multivector(4, {1: 1e308, 2: 1e308, 3: 2e-12, 5: -0.5})


@settings(max_examples=200)
@example({1: 1 + 0j, 2: 1e-12 + 0j}, 1)
@example({1: 1 + 0j, 2: complex(0, math.inf)}, 1)
@example({1: 1 + 0j, 2: complex(1.7e308, -1.7e308)}, -1)  # abs overflows
@example({2: 1e308 + 0j, 1: 1e308 + 0j}, 1)  # two sums overflow
@example({3: 1e-12 + 0j, 5: -0.5 + 0j, 1: 1e308 + 0j}, -1)  # three sums fall to PRUNE_TOL or 0
@given(st.dictionaries(st.integers(0, 15), _COEFFS, max_size=8), st.sampled_from([1, -1]))
def test_trusted_build_keeps_what_pruned_keeps_or_raises_its_error(terms, sign):
    """`_result`, `combine`, the evaluator's one-term pairs and
    `scalar_product` keep, prune or raise as `_pruned` does on the sums and
    products they form."""

    def outcome(build):
        try:
            return [(m, repr(c)) for m, c in build()]
        except ValueError as err:
            return str(err)

    want = outcome(lambda: _pruned(dict(terms)).items())
    assert outcome(lambda: _result(4, dict(terms))) == want
    touched = {m: _FIRST._terms.get(m, 0j) + (c if sign > 0 else -c) for m, c in terms.items()}

    def summed():
        _pruned(touched)  # raises on the first non-finite sum in the term's order
        return _pruned({**_FIRST._terms, **touched}).items()

    term = Multivector._build(4, dict(terms))
    assert outcome(lambda: combine(_FIRST, [(sign, term)])) == outcome(summed)
    # (c * e5) ^ (c * e_m) at d=5, e_m's indices written in descending order,
    # as the evaluator's one-term pair, per drawn term but the scalar: each
    # factor's scaled coefficient, then the product, each kept, pruned (the
    # pair is None) or rejected as `_pruned` does
    for m, c in terms.items():
        if not m:
            continue
        down = indices_from_mask(m)[::-1]
        node = Wedge((ScalarMul(c, Blade((5,))), ScalarMul(c, Blade(down))))

        def folded():
            first = _pruned({16: (1 + 0j) * c})
            second = _pruned({m: complex(sort_sign(down, ())) * c}) if first else {}
            sign = sort_sign([4], positions(m))
            product = {m | 16: 0j + sign * a * b for a in first.values() for b in second.values()}
            return _pruned(product).items()

        assert outcome(lambda: filter(None, [_one_term(node, 5)])) == outcome(folded)
    # each step's drawn terms against 1 on the same blades
    for k in range(5):
        a = Multivector._build(4, {m: c for m, c in terms.items() if m.bit_count() == k})
        total = sum((c.conjugate() * (1 + 0j) for c in a._terms.values()), 0j)
        b = Multivector._build(4, dict.fromkeys(a._terms, 1 + 0j))
        assert outcome(lambda: [(0, scalar_product(a, b))]) == outcome(
            lambda: [(0, _pruned({0: total}).get(0, 0j))]
        )
    if isinstance(want, list):
        # the constructor copies: changing its argument later changes no value
        value = Multivector(4, terms)
        terms[0] = 7j
        terms.pop(15, None)
        assert outcome(lambda: value) == want


# |c| just above PRUNE_TOL beside signed zeros; subnormal parts beside large
# ones; parts near the float range
@settings(max_examples=200)
@example({1: complex(math.nextafter(PRUNE_TOL, 1), -0.0), 6: complex(-0.0, 0.6e-12), 3: -0j})
@example({1: complex(5e-324, 1.0), 2: complex(1e308, -5e-324), 12: complex(-5e-324, -1.7e308)})
@example({0: complex(1.7e308, -0.0), 15: complex(-1e308, 1e308), 9: complex(-0.0, -0.5)})
@given(st.dictionaries(st.integers(0, 15), _COEFFS, max_size=10))
def test_bijective_maps_build_what_result_builds(terms):
    """`hodge`, `hodge_inverse`, `conjugate`, negation and `grade_project`
    store +-c or conj(c) of kept coefficients without `_result`'s pre-scan:
    what each builds is what `_result` builds from the same dict, bit for bit."""
    try:
        value = Multivector(4, terms)
    except ValueError:  # a coefficient no value can store
        return
    maps = [hodge, hodge_inverse, conjugate, operator.neg]
    for f in maps + [partial(grade_project, k=k) for k in range(5)]:
        got = f(value)
        assert type(got) is Multivector
        assert hex_terms(got) == hex_terms(_result(4, dict(got._terms)))
