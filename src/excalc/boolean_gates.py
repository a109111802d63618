"""Partial set gates induced by the exterior products.

A subset of {1..d} maps to its basis blade, and is kept as that blade's mask;
pulling wedge and vee back through the map gives two partially defined set
operations.  A pair is in-domain exactly when the algebra result is a single
blade with coefficient +1, matched within PRUNE_TOL (a zero or sign-carrying
result has no subset preimage).  Plain union / intersection / complement
gates are provided for side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import DimensionError
from .multivector import (
    PRUNE_TOL,
    Multivector,
    _result,
    all_blades,
    check_dim,
    indices_from_mask,
    vee,
    wedge,
)

DOMAIN_MAX_DIM = 8


@dataclass(frozen=True)
class SubsetState:
    """A subset of the index set {1..d}, as the mask of its blade."""

    d: int
    mask: int

    def __post_init__(self):
        check_dim(self.d)
        if type(self.mask) is not int or not 0 <= self.mask < 1 << self.d:
            raise DimensionError(f"subset mask {self.mask!r} outside dimension {self.d}")

    @property
    def members(self) -> frozenset[int]:
        return frozenset(indices_from_mask(self.mask))

    def to_text(self) -> str:
        return "{" + ",".join(map(str, indices_from_mask(self.mask))) + "}"


def subset(d: int, members: Iterable[int] = ()) -> SubsetState:
    members = frozenset(members)
    check_dim(d)
    if not all(type(i) is int and 1 <= i <= d for i in members):
        raise DimensionError(f"members {set(members)} outside 1..{d}")
    return SubsetState(d, sum(1 << (i - 1) for i in members))


def all_subsets(d: int) -> list[SubsetState]:
    """Every subset in (size, ascending members) order."""
    return [SubsetState(d, mask) for mask in all_blades(d)]


# ---- the powerset <-> blade map ----------------------------------------------


def m_map(s: SubsetState) -> Multivector:
    """Subset -> its basis blade ({} -> 1, full set -> E)."""
    return _result(s.d, {s.mask: 1 + 0j})


def m_inverse(a: Multivector) -> Optional[SubsetState]:
    """Subset whose blade a is, or None when a has no subset preimage.

    Defined only for a single blade with coefficient +1 (within PRUNE_TOL);
    the zero multivector and sign- or scale-carrying blades map to None.
    """
    if len(a) != 1:
        return None
    (mask, c), = a
    if abs(c - 1.0) > PRUNE_TOL:
        return None
    return SubsetState(a.d, mask)


# ---- partial pseudo-fermionic operations --------------------------------------


def _check_same_dim(a1: SubsetState, a2: SubsetState) -> None:
    if a1.d != a2.d:
        raise DimensionError(f"subsets live in different dimensions ({a1.d} vs {a2.d})")


def pseudo_wedge(a1: SubsetState, a2: SubsetState) -> Optional[SubsetState]:
    _check_same_dim(a1, a2)
    return m_inverse(wedge(m_map(a1), m_map(a2)))


def pseudo_vee(a1: SubsetState, a2: SubsetState) -> Optional[SubsetState]:
    _check_same_dim(a1, a2)
    return m_inverse(vee(m_map(a1), m_map(a2)))


def _domain(d: int, op) -> set[tuple[frozenset[int], frozenset[int]]]:
    check_dim(d)
    if d > DOMAIN_MAX_DIM:
        raise DimensionError(f"domain enumeration limited to d <= {DOMAIN_MAX_DIM}")
    states = all_subsets(d)
    return {
        (a.members, b.members)
        for a in states
        for b in states
        if op(a, b) is not None
    }


def domain_d1(d: int) -> set[tuple[frozenset[int], frozenset[int]]]:
    """All subset pairs on which pseudo_wedge is defined."""
    return _domain(d, pseudo_wedge)


def domain_d2(d: int) -> set[tuple[frozenset[int], frozenset[int]]]:
    """All subset pairs on which pseudo_vee is defined."""
    return _domain(d, pseudo_vee)


# ---- ordinary Boolean set gates -----------------------------------------------


def bool_or(a1: SubsetState, a2: SubsetState) -> SubsetState:
    _check_same_dim(a1, a2)
    return SubsetState(a1.d, a1.mask | a2.mask)


def bool_and(a1: SubsetState, a2: SubsetState) -> SubsetState:
    _check_same_dim(a1, a2)
    return SubsetState(a1.d, a1.mask & a2.mask)


def bool_not(a1: SubsetState) -> SubsetState:
    return SubsetState(a1.d, a1.mask ^ ((1 << a1.d) - 1))
