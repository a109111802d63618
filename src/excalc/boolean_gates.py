"""Partial set gates induced by the exterior products.

A subset of {1..d} maps to its basis blade, and is kept as that blade's mask;
pulling wedge and vee back through the map gives two partially defined set
operations.  A pair is in-domain exactly when the algebra result is a single
blade with coefficient +1, matched within PRUNE_TOL (a zero or sign-carrying
result has no subset preimage).  Plain union / intersection / complement
gates are provided for side-by-side comparison.
"""

from __future__ import annotations

from collections.abc import Iterable

from .multivector import (
    PRUNE_TOL,
    Multivector,
    _result,
    _Record,
    all_blades,
    check_dim,
    check_index,
    check_mask,
    check_same_dim,
    indices_from_mask,
    vee,
    wedge,
)


class SubsetState(_Record):
    """Immutable subset of the index set {1..d}, as the mask of its blade."""

    __slots__ = __match_args__ = ("d", "mask")

    def __new__(cls, d: int, mask: int):
        return cls._build(d, check_mask(check_dim(d), mask))

    @property
    def members(self) -> frozenset[int]:
        return frozenset(indices_from_mask(self.mask))

    def to_text(self) -> str:
        return "{" + ",".join(map(str, indices_from_mask(self.mask))) + "}"


def subset(d: int, members: Iterable[int] = ()) -> SubsetState:
    """The subset of the given indices; a repeated index counts once."""
    check_dim(d)
    mask = 0
    for i in members:
        mask |= 1 << (check_index(d, i) - 1)
    return SubsetState._build(d, mask)


def all_subsets(d: int) -> list[SubsetState]:
    """Every subset in (size, ascending members) order."""
    return [SubsetState._build(d, mask) for mask in all_blades(d)]


# ---- the powerset <-> blade map ----------------------------------------------


def m_map(s: SubsetState) -> Multivector:
    """Subset -> its basis blade ({} -> 1, full set -> E)."""
    return _result(s.d, {s.mask: 1 + 0j})


def m_inverse(a: Multivector) -> SubsetState | None:
    """Subset whose blade a is, or None when a has no subset preimage.

    Defined only for a single blade with coefficient +1 (within PRUNE_TOL);
    the zero multivector and sign- or scale-carrying blades map to None.
    """
    if len(a) != 1:
        return None
    (mask, c), = a
    if abs(c - 1.0) > PRUNE_TOL:
        return None
    return SubsetState._build(a.d, mask)


# ---- partial pseudo-fermionic operations --------------------------------------


def pseudo_wedge(a1: SubsetState, a2: SubsetState) -> SubsetState | None:
    return m_inverse(wedge(m_map(a1), m_map(a2)))


def pseudo_vee(a1: SubsetState, a2: SubsetState) -> SubsetState | None:
    return m_inverse(vee(m_map(a1), m_map(a2)))


# ---- ordinary Boolean set gates -----------------------------------------------


def bool_or(a1: SubsetState, a2: SubsetState) -> SubsetState:
    check_same_dim(a1, a2)
    return SubsetState._build(a1.d, a1.mask | a2.mask)


def bool_and(a1: SubsetState, a2: SubsetState) -> SubsetState:
    check_same_dim(a1, a2)
    return SubsetState._build(a1.d, a1.mask & a2.mask)


def bool_not(a1: SubsetState) -> SubsetState:
    return SubsetState._build(a1.d, a1.mask ^ ((1 << a1.d) - 1))
