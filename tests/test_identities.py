"""Cross-route identities of the exterior operations, as properties.

The same relations `verify.check_identity_relations` samples from a seeded
RNG, checked here over multivectors hypothesis draws: d = 1..6, at most four
terms each, coefficients in the box |re|, |im| <= 2.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from excalc.multivector import (
    Multivector,
    hodge,
    hodge_inverse,
    mv_equal_approx,
    vee,
    wedge,
)

TOL = 1e-10
_PART = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
_COEFF = st.builds(complex, _PART, _PART)


def _mv(d: int, masks=None):
    masks = st.integers(0, (1 << d) - 1) if masks is None else st.sampled_from(masks)
    return st.dictionaries(masks, _COEFF, min_size=1, max_size=4).map(
        lambda terms: Multivector(d, terms)
    )


_DIM = st.integers(1, 6)
triples = _DIM.flatmap(lambda d: st.tuples(_mv(d), _mv(d), _mv(d)))


@st.composite
def homogeneous_pairs(draw):
    """d, k, l and one element each of grades k and l."""
    d = draw(_DIM)
    k, l = draw(st.integers(0, d)), draw(st.integers(0, d))
    grade = lambda g: [m for m in range(1 << d) if m.bit_count() == g]
    return d, k, l, draw(_mv(d, grade(k))), draw(_mv(d, grade(l)))


@given(triples)
def test_wedge_and_vee_are_associative(abc):
    a, b, c = abc
    assert mv_equal_approx(wedge(wedge(a, b), c), wedge(a, wedge(b, c)), TOL)
    assert mv_equal_approx(vee(vee(a, b), c), vee(a, vee(b, c)), TOL)


@given(triples)
def test_star_swaps_wedge_and_vee(abc):
    a, b, _ = abc
    assert mv_equal_approx(hodge(wedge(a, b)), vee(hodge(a), hodge(b)), TOL)
    assert mv_equal_approx(hodge(vee(a, b)), wedge(hodge(a), hodge(b)), TOL)


@given(triples)
def test_hodge_inverse_undoes_hodge(abc):
    a = abc[0]
    assert mv_equal_approx(hodge_inverse(hodge(a)), a, TOL)
    assert mv_equal_approx(hodge(hodge_inverse(a)), a, TOL)


@given(homogeneous_pairs())
def test_graded_antisymmetry(pair):
    d, k, l, ha, hb = pair
    sign_w = -1 if (k * l) & 1 else 1
    sign_v = -1 if ((d - k) * (d - l)) & 1 else 1
    assert mv_equal_approx(wedge(ha, hb), sign_w * wedge(hb, ha), TOL)
    assert mv_equal_approx(vee(ha, hb), sign_v * vee(hb, ha), TOL)
    sign_ss = -1 if (k * (d - k)) & 1 else 1
    assert mv_equal_approx(hodge(hodge(ha)), sign_ss * ha, TOL)
