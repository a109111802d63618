"""The identity relations of `excalc.verify.RELATIONS`, as properties.

`verify-paper` samples each relation with its seeded RNG; here hypothesis
feeds the same relations a `random.Random` whose every draw it controls, so
a failure shrinks to a small dimension and small operands.  d = 1..6;
coefficient parts lie in (-2, 2) as in the seeded draws.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from excalc.verify import RELATIONS


@pytest.mark.parametrize("relation", RELATIONS, ids=lambda r: r.__name__)
@given(rng=st.randoms(use_true_random=False), d=st.integers(1, 6))
def test_relation_holds(relation, rng, d):
    assert relation(rng, d)


def test_relation_names_are_pinned():
    assert {r.__name__ for r in RELATIONS} == {
        "unit_rows",
        "associativity",
        "star_duality",
        "star_inverse",
        "graded_antisymmetry",
        "pauli_rows",
        "exclusion_corollary",
        "covector_formula",
        "one_hole_fill",
        "covector_join",
        "complementary_determinant",
        "triple_determinant",
    }
