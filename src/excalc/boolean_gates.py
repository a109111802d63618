"""Partial set gates induced by the exterior products.

A subset of {1..d} maps to its basis blade; pulling wedge and vee back through
that map gives two partially defined set operations.  A pair is in-domain
exactly when the algebra result is a single blade with coefficient +1 (a zero
or sign-carrying result has no subset preimage).  Plain union / intersection /
complement gates are provided for side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Optional

from .errors import DimensionError
from .multivector import PRUNE_TOL, Multivector, check_dim, indices_from_mask, vee, wedge

DOMAIN_MAX_DIM = 8


@dataclass(frozen=True)
class SubsetState:
    """A subset of the index set {1..d}."""

    d: int
    members: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        check_dim(self.d)
        members = frozenset(self.members)
        if not all(type(i) is int and 1 <= i <= self.d for i in members):
            raise DimensionError(f"members {set(members)} outside 1..{self.d}")
        object.__setattr__(self, "members", members)

    def to_text(self) -> str:
        if not self.members:
            return "{}"
        return "{" + ",".join(str(i) for i in sorted(self.members)) + "}"


def subset(d: int, members: Iterable[int] = ()) -> SubsetState:
    return SubsetState(d, frozenset(members))


def all_subsets(d: int) -> list[SubsetState]:
    """Every subset in (size, ascending members) order."""
    check_dim(d)
    items = range(1, d + 1)
    combos = chain.from_iterable(combinations(items, k) for k in range(d + 1))
    return [subset(d, c) for c in combos]


# ---- the powerset <-> blade map ----------------------------------------------


def m_map(s: SubsetState) -> Multivector:
    """Subset -> its basis blade ({} -> 1, full set -> E)."""
    return Multivector.from_indices(s.d, sorted(s.members))


def m_inverse(a: Multivector, tol: float = PRUNE_TOL) -> Optional[SubsetState]:
    """Subset whose blade a is, or None when a has no subset preimage.

    Defined only for a single blade with coefficient +1 (within tol); the zero
    multivector and sign- or scale-carrying blades map to None.
    """
    terms = a.terms()
    if len(terms) != 1:
        return None
    (mask, c), = terms.items()
    if abs(c - 1.0) > tol:
        return None
    return subset(a.d, indices_from_mask(mask))


# ---- partial pseudo-fermionic operations --------------------------------------


def pseudo_wedge(
    a1: SubsetState, a2: SubsetState, tol: float = PRUNE_TOL
) -> Optional[SubsetState]:
    if a1.d != a2.d:
        raise DimensionError(f"subsets live in different dimensions ({a1.d} vs {a2.d})")
    return m_inverse(wedge(m_map(a1), m_map(a2)), tol)


def pseudo_vee(
    a1: SubsetState, a2: SubsetState, tol: float = PRUNE_TOL
) -> Optional[SubsetState]:
    if a1.d != a2.d:
        raise DimensionError(f"subsets live in different dimensions ({a1.d} vs {a2.d})")
    return m_inverse(vee(m_map(a1), m_map(a2)), tol)


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
    if a1.d != a2.d:
        raise DimensionError("subsets live in different dimensions")
    return subset(a1.d, a1.members | a2.members)


def bool_and(a1: SubsetState, a2: SubsetState) -> SubsetState:
    if a1.d != a2.d:
        raise DimensionError("subsets live in different dimensions")
    return subset(a1.d, a1.members & a2.members)


def bool_not(a1: SubsetState) -> SubsetState:
    return subset(a1.d, set(range(1, a1.d + 1)) - a1.members)
