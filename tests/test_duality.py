"""The folded sparse kernels against the duality compositions they fold,
and the closed-form signs against the loops they replace.

The dict `vee`, `hodge_inverse` and `scalar_product` each multiply the ±1
factors of the duality route into one sign per blade pair.  The routes they
replace stay here as oracles: the folded kernels must give the same floats,
bit for bit (compared by `float.hex`), up to the sign of a zero part.
`merge_sign` and `star_sign` are checked against the rules they stand for,
`oracles.sort_sign` and the index sum, and `hodge` and `hodge_inverse`
against the loops they were, signed zeros included.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from excalc import multivector
from excalc.multivector import (
    Multivector,
    conjugate,
    hodge,
    hodge_inverse,
    indices_from_mask,
    merge_sign,
    scalar_product,
    star_sign,
)
from oracles import positions, sort_sign


def walked_star(a: Multivector, inverse: bool = False) -> Multivector:
    """hodge, or with inverse hodge_inverse, as the loops they were: blade s
    goes to its complement with the sorting sign of (s, complement), or of
    (complement, s)."""
    full = (1 << a.d) - 1
    out: dict[int, complex] = {}
    for s, c in a:
        comp = full ^ s
        first, second = (comp, s) if inverse else (s, comp)
        sign = sort_sign(positions(first), positions(second))
        out[comp] = out.get(comp, 0j) + sign * c
    return multivector._result(a.d, out)


def index_sum_star_sign(mask: int) -> int:
    """(-1)^(i1 + ... + ik - k(k+1)/2): the star sign as an index sum."""
    k = mask.bit_count()
    exponent = sum(indices_from_mask(mask)) - k * (k + 1) // 2
    return -1 if exponent & 1 else 1


def double_star_sign(d: int, mask: int) -> int:
    """(-1)^(k(d-k)) on step k: hodge(hodge(x)) is this times x."""
    k = mask.bit_count()
    return -1 if (k * (d - k)) & 1 else 1


def duality_hodge_inverse(a: Multivector) -> Multivector:
    """hodge_inverse as a double-star sign, then the star."""
    return hodge(Multivector(a.d, {m: double_star_sign(a.d, m) * c for m, c in a}))


def duality_vee(a: Multivector, b: Multivector) -> Multivector:
    return duality_hodge_inverse(multivector._wedge_dict(hodge(a), hodge(b)))


def bits(x, zero: float = 0.0) -> tuple:
    """Exact value of a multivector or a complex; -0.0 and 0.0 read alike,
    unless zero is -0.0, which keeps the sign of every zero part."""
    if isinstance(x, Multivector):
        return (x.d, sorted((m, bits(c, zero)) for m, c in x))
    return ((x.real + zero).hex(), (x.imag + zero).hex())


# parts in (-2, 2) as in the seeded draws, plus values at the pruning edge and
# large ones whose products stay finite
parts = st.one_of(
    st.floats(-2, 2),
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e150, -1e150]),
)
coeffs = st.builds(complex, parts, parts)


@st.composite
def operand_pairs(draw, homogeneous: bool = False):
    """Operands of up to 6 terms at d = 1..16, a nonzero.  About half of b's
    blades cover the complement of one of a's (on equal steps: repeat it), so
    that vee and the scalar product have pairs to join."""
    d = draw(st.integers(1, 16))
    full = (1 << d) - 1
    if homogeneous:
        k = draw(st.integers(0, d))
        mask = st.sets(st.integers(0, d - 1), min_size=k, max_size=k).map(
            lambda idx: sum(1 << i for i in idx)
        )
    else:
        mask = st.integers(0, full)
    a_masks = draw(st.lists(mask, min_size=1, max_size=6))
    b_masks = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            s = draw(st.sampled_from(a_masks))
            b_masks.append(s if homogeneous else (full ^ s) | draw(st.integers(0, full)))
        else:
            b_masks.append(draw(mask))
    a = Multivector(d, {m: draw(coeffs) for m in a_masks})
    b = Multivector(d, {m: draw(coeffs) for m in b_masks})
    return a, b


@given(operand_pairs())
def test_folded_vee_is_the_duality_route(pair):
    a, b = pair
    assert bits(multivector._vee_dict(a, b)) == bits(duality_vee(a, b))


@given(operand_pairs())
def test_folded_hodge_inverse_is_the_duality_route(pair):
    a, _ = pair
    assert bits(hodge_inverse(a)) == bits(duality_hodge_inverse(a))


@given(operand_pairs(homogeneous=True))
def test_folded_scalar_product_is_the_duality_route(pair):
    a, b = pair
    assert bits(scalar_product(a, b)) == bits(duality_vee(conjugate(a), hodge(b)).coeff_mask(0))


@given(operand_pairs())
def test_hodge_and_its_inverse_are_the_walked_loops(pair):
    a, _ = pair
    assert bits(hodge(a), -0.0) == bits(walked_star(a), -0.0)
    assert bits(hodge_inverse(a), -0.0) == bits(walked_star(a, inverse=True), -0.0)


@pytest.mark.parametrize("d", range(1, 17))
def test_star_sign_is_the_index_sum_formula(d):
    """The closed form is the index-sum sign on every mask whose top mode is
    e_d, the empty mask at d = 1: the 16 rows cover all 2^16 masks once."""
    for mask in range(0 if d == 1 else 1 << d - 1, 1 << d):
        assert star_sign(mask) == index_sum_star_sign(mask)


def test_merge_sign_is_the_walked_count_on_every_disjoint_pair_of_8_modes():
    for s in range(1 << 8):
        for t in range(1 << 8):
            if not s & t:
                assert merge_sign(s, t) == sort_sign(positions(s), positions(t))


def test_merge_sign_is_the_walked_count_at_the_top_mode():
    """Seeded disjoint pairs at d = 16 in which one side holds e16."""
    rng = random.Random(2600)
    for _ in range(5000):
        s = rng.getrandbits(16) | 1 << 15
        t = rng.getrandbits(16) & ~s
        assert merge_sign(s, t) == sort_sign(positions(s), positions(t))
        assert merge_sign(t, s) == sort_sign(positions(t), positions(s))


@pytest.mark.parametrize("d", range(1, 9))
def test_one_merge_sign_is_the_four_duality_signs(d):
    """Every blade pair that vee joins (3^d of them): the two star signs, the
    wedge's merge sign of the stars and the inverse star's sign multiply out
    to merge_sign(full ^ t, full ^ s)."""
    full = (1 << d) - 1
    pairs = 0
    for s in range(full + 1):
        star_s, comp_s = star_sign(s), full ^ s
        for t in range(full + 1):
            if s | t != full:
                continue
            star_t, comp_t = star_sign(t), full ^ t
            joined = comp_s | comp_t
            star_u, u = star_sign(joined), full ^ joined
            inverse = double_star_sign(d, joined) * star_u
            assert u == s & t
            folded = merge_sign(full ^ t, full ^ s)
            assert folded == star_s * star_t * merge_sign(comp_s, comp_t) * inverse
            pairs += 1
        inverse_s = double_star_sign(d, s) * star_s
        assert merge_sign(full ^ s, s) == inverse_s
    assert pairs == 3**d
