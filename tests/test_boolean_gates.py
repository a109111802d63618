"""Partial set gates induced by the exterior products, and their domains."""

from __future__ import annotations

import dataclasses

import pytest

from excalc.boolean_gates import (
    SubsetState,
    all_subsets,
    bool_and,
    bool_not,
    bool_or,
    m_inverse,
    m_map,
    pseudo_vee,
    pseudo_wedge,
    subset,
)
from excalc.errors import DimensionError, IndexRangeError
from excalc.multivector import Multivector, all_blades, hodge, merge_sign
from excalc.tables import table_rows

D1_REFERENCE = {
    (frozenset(), frozenset()),
    (frozenset({1}), frozenset()),
    (frozenset({2}), frozenset()),
    (frozenset({1, 2}), frozenset()),
    (frozenset(), frozenset({1})),
    (frozenset(), frozenset({2})),
    (frozenset({1}), frozenset({2})),
    (frozenset(), frozenset({1, 2})),
}
D2_REFERENCE = {
    (frozenset({1, 2}), frozenset()),
    (frozenset({1, 2}), frozenset({1})),
    (frozenset({1}), frozenset({2})),
    (frozenset({1, 2}), frozenset({2})),
    (frozenset(), frozenset({1, 2})),
    (frozenset({1}), frozenset({1, 2})),
    (frozenset({2}), frozenset({1, 2})),
    (frozenset({1, 2}), frozenset({1, 2})),
}


def test_m_map_examples():
    assert m_map(subset(2, {1})) == Multivector.from_indices(2, (1,))
    assert m_map(subset(2, {1, 2})) == Multivector.top(2)
    assert m_map(subset(2)) == Multivector.vacuum(2)
    assert m_map(subset(3, {2, 3})) == Multivector.from_indices(3, (2, 3))
    for a in all_subsets(4):
        assert m_map(a) == Multivector.from_indices(4, sorted(a.members))
        assert m_inverse(m_map(a)) == a


def test_a_subset_is_kept_as_its_blade_mask():
    a = subset(4, [3, 1])
    assert [f.name for f in dataclasses.fields(SubsetState)] == ["d", "mask"]
    assert a.mask == 0b101 and a.members == frozenset({1, 3})
    assert all_subsets(3) == [SubsetState(3, m) for m in all_blades(3)]
    for bad in ({0}, {5}, {True}, {1.0}, {"1"}):
        with pytest.raises(IndexRangeError):
            subset(4, bad)
    with pytest.raises(DimensionError):
        subset(0)
    for mask in (-1, 16, True, 1.0):
        with pytest.raises(IndexRangeError):
            SubsetState(4, mask)


def test_m_inverse():
    assert m_inverse(Multivector.from_indices(3, (1, 2))) == subset(3, {1, 2})
    assert m_inverse(-Multivector.top(2)) is None
    assert m_inverse(Multivector.zero(2)) is None
    assert m_inverse(2.0 * Multivector.vacuum(2)) is None
    assert m_inverse(Multivector.vacuum(2)) == subset(2)


def test_pseudo_operation_examples():
    assert pseudo_wedge(subset(2, {1}), subset(2, {2})) == subset(2, {1, 2})
    assert pseudo_vee(subset(2, {1, 2}), subset(2, {1})) == subset(2, {1})
    assert pseudo_wedge(subset(2, {2}), subset(2, {1})) is None
    # e1^e3^e2 carries a minus sign, so the pair is off-domain
    assert pseudo_wedge(subset(3, {1, 3}), subset(3, {2})) is None
    with pytest.raises(DimensionError):
        pseudo_wedge(subset(2, {1}), subset(3, {1}))
    with pytest.raises(IndexRangeError):
        subset(2, {True})


def domain(op: str, d: int) -> set[tuple[frozenset[int], frozenset[int]]]:
    """Member pairs of the defined cells of `excalc table --op op --dim d`."""

    def members(label: str) -> frozenset[int]:
        return frozenset(int(i) for i in label.strip("{}").split(",") if i)

    return {(members(a), members(b)) for a, b, cell in table_rows(op, d) if cell}


def test_domains_match_reference_listings():
    assert domain("pseudo-wedge", 2) == D1_REFERENCE
    assert domain("pseudo-vee", 2) == D2_REFERENCE


def test_domain_d1_smallest_space():
    assert domain("pseudo-wedge", 1) == {
        (frozenset(), frozenset()),
        (frozenset({1}), frozenset()),
        (frozenset(), frozenset({1})),
    }


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_on_domain_the_gates_are_union_and_intersection(d):
    for members1, members2 in domain("pseudo-wedge", d):
        got = pseudo_wedge(subset(d, members1), subset(d, members2))
        assert got is not None and got.members == members1 | members2
    for members1, members2 in domain("pseudo-vee", d):
        got = pseudo_vee(subset(d, members1), subset(d, members2))
        assert got is not None and got.members == members1 & members2


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_set_gates_follow_the_mask_rule(d):
    """pseudo_wedge(a, b) is defined iff the masks s, t are disjoint and merge
    with sign +1, and is then the union.  pseudo_vee(a, b) is defined iff
    s | t is full and the complements merge, as (full ^ t, full ^ s), with
    sign +1 (the folded sign of the duality vee), and is then the intersection."""
    full = (1 << d) - 1
    states = all_subsets(d)
    for a in states:
        for b in states:
            s, t = a.mask, b.mask
            meets = s & t == 0 and merge_sign(s, t) == 1
            want = subset(d, a.members | b.members) if meets else None
            assert pseudo_wedge(a, b) == want, (a, b)
            joins = s | t == full and merge_sign(full ^ t, full ^ s) == 1
            want = subset(d, a.members & b.members) if joins else None
            assert pseudo_vee(a, b) == want, (a, b)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_domain_necessary_conditions(d):
    full = frozenset(range(1, d + 1))
    for members1, members2 in domain("pseudo-wedge", d):
        assert not members1 & members2
    for members1, members2 in domain("pseudo-vee", d):
        assert members1 | members2 == full


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_star_blade_support_is_the_complement(d):
    # the blade under the star complement occupies exactly the complement set,
    # whatever sign it carries
    full = set(range(1, d + 1))
    for a in all_subsets(d):
        starred = hodge(m_map(a))
        (mask, _), = starred.terms().items()
        occupied = {i + 1 for i in range(d) if mask >> i & 1}
        assert occupied == full - set(a.members)
        back = m_inverse(starred)
        if back is not None:
            assert back.members == frozenset(full - set(a.members))


def test_plain_set_gates():
    assert bool_or(subset(2, {1}), subset(2, {2})) == subset(2, {1, 2})
    assert bool_and(subset(2, {1}), subset(2, {1, 2})) == subset(2, {1})
    assert bool_not(subset(2)) == subset(2, {1, 2})
    full = frozenset(range(1, 4))
    for a in all_subsets(3):
        assert bool_not(a).members == full - a.members
        for b in all_subsets(3):
            assert bool_or(a, b).members == a.members | b.members
            assert bool_and(a, b).members == a.members & b.members
    with pytest.raises(DimensionError):
        bool_or(subset(2), subset(3))


def test_subset_text():
    assert subset(3, {2, 1}).to_text() == "{1,2}"
    assert subset(3).to_text() == "{}"
