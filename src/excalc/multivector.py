"""Sparse multivectors over a d-dimensional complex vector space.

A basis blade e_{i1}^...^e_{ik} (i1 < ... < ik, indices 1..d) is encoded as a
bitmask with bit i-1 set for index i.  The empty mask is the scalar blade "1"
(the fermionic vacuum), the full mask is the top blade "E" (every state
occupied).  A multivector is a finite blade -> complex coefficient map; the
zero multivector has no terms and is distinct from the vacuum scalar 1.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Iterator, Mapping
from operator import attrgetter

from .errors import DimensionError, GradeError, IndexRangeError, SchemaError

MAX_DIM = 16
# Absolute magnitude that counts as zero: stored terms, unit-coefficient
# matches and default comparisons.
PRUNE_TOL = 1e-12
# Relative pivot threshold: a pivot at most this times the largest entry
# (or 1) makes a determinant 0 and does not add to a rank.
SINGULAR_TOL = 1e-12


# ---- argument kinds: one checker each; a bool is never an int of these kinds ----


def check_dim(d: int) -> int:
    """A space dimension: an int in 1..MAX_DIM, else DimensionError."""
    if type(d) is not int or not 1 <= d <= MAX_DIM:
        raise DimensionError(f"dimension must be an integer in 1..{MAX_DIM}, got {d!r}")
    return d


def check_index(d: int, i: int) -> int:
    """A 1-based mode index: an int in 1..d, else IndexRangeError."""
    if type(i) is not int or not 1 <= i <= d:
        raise IndexRangeError(f"basis index {i!r} outside 1..{d}")
    return i


def check_step(k: int, top: int, what: str) -> int:
    """A step (grade or split class): an int in 0..top, else GradeError."""
    if type(k) is not int or not 0 <= k <= top:
        raise GradeError(f"{what} {k!r} outside 0..{top}")
    return k


def check_mask(d: int, mask: int) -> int:
    """A blade mask: an int in 0..2^d - 1, else IndexRangeError."""
    if type(mask) is not int or not 0 <= mask < 1 << d:
        raise IndexRangeError(f"blade mask {mask!r} outside dimension {d}")
    return mask


def check_coeff(c: complex) -> complex:
    """A finite complex from what complex() takes, but not a bool or a str, else ValueError."""
    if type(c) is not complex:
        if isinstance(c, (bool, str)):  # complex() reads these as numbers
            raise ValueError(f"coefficient {c!r} is not a number")
        try:
            c = complex(c)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"coefficient {c!r} is not a number") from None
    if not cmath.isfinite(c):
        raise ValueError(f"non-finite coefficient {c!r}")
    return c


def check_same_dim(a, b) -> None:
    """Operands of one space: equal `.d`, else DimensionError."""
    if a.d != b.d:
        raise DimensionError(f"operands live in different dimensions ({a.d} vs {b.d})")


def mask_from_indices(d: int, indices: Iterable[int]) -> int:
    """Bitmask of a set of 1-based basis indices; duplicates rejected."""
    check_dim(d)
    mask = 0
    for i in indices:
        bit = 1 << (check_index(d, i) - 1)
        if mask & bit:
            raise IndexRangeError(f"basis index {i} repeated")
        mask |= bit
    return mask


def _canonical(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key of the canonical blade order: step, then index tuple."""
    return mask.bit_count(), indices_from_mask(mask)


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Ascending 1-based indices of a blade mask of any dimension."""
    check_mask(MAX_DIM, mask)
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def merge_sign(a: int, b: int) -> int:
    """Parity sign of merging two disjoint blades: (-1)^|{(i,j): i in a, j in b, i > j}|."""
    inv = 0
    t = b
    while t:
        low = t & -t
        inv += (a >> low.bit_length()).bit_count()
        t ^= low
    return -1 if inv & 1 else 1


def hodge_blade(d: int, mask: int) -> tuple[int, int]:
    """Star complement of one blade: (sign, complement mask), with the sign
    that makes blade ^ star = E."""
    comp = ((1 << d) - 1) ^ mask
    return merge_sign(mask, comp), comp


class _Value:
    """Equality, hash and repr over the fields named in `__match_args__`;
    an instance equals only an instance of its own class."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # the class and every field in one C call, as tables hash each cell
        cls._key = property(attrgetter("__class__", *cls.__match_args__))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: an immutable
        # subclass refuses the setattr they would otherwise use
        return self.__class__, tuple(getattr(self, f) for f in self.__match_args__)


class Multivector:
    """Immutable sparse multivector.  Build via the classmethods or module ops."""

    __slots__ = ("d", "_terms")

    def __init__(self, d: int, terms: Mapping[int, complex]):
        check_dim(d)
        full = (1 << d) - 1
        checked: dict[int, complex] = {}
        for mask, c in terms.items():
            # the checkers run only on what is not an in-range int mask and a complex
            if type(mask) is not int or mask & ~full:
                check_mask(d, mask)
            checked[mask] = c if type(c) is complex else check_coeff(c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_terms", _pruned(checked))

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, as for _Value
        return Multivector, (self.d, self.terms())

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> Multivector:
        return cls(d, {})

    @classmethod
    def scalar(cls, d: int, value: complex) -> Multivector:
        return cls(d, {0: value})

    @classmethod
    def vacuum(cls, d: int) -> Multivector:
        """The scalar 1: no fermions, every state a hole."""
        return cls(d, {0: 1 + 0j})

    @classmethod
    def top(cls, d: int) -> Multivector:
        """The top blade E = e_1^...^e_d: every state occupied."""
        return cls(d, {(1 << check_dim(d)) - 1: 1 + 0j})

    @classmethod
    def from_indices(cls, d: int, indices: Iterable[int], coeff: complex = 1 + 0j) -> Multivector:
        """Single basis blade from a set of 1-based indices."""
        return cls(d, {mask_from_indices(d, indices): coeff})

    # ---- term access ---------------------------------------------------

    def terms(self) -> dict[int, complex]:
        """Copy of the blade-mask -> coefficient map."""
        return dict(self._terms)

    def coeff(self, indices: Iterable[int]) -> complex:
        return self._terms.get(mask_from_indices(self.d, indices), 0j)

    def coeff_mask(self, mask: int) -> complex:
        return self._terms.get(check_mask(self.d, mask), 0j)

    def sorted_masks(self) -> list[int]:
        """Blade masks in canonical (step, ascending index tuple) order."""
        return sorted(self._terms, key=_canonical)

    def is_zero(self) -> bool:
        return not self._terms

    def __iter__(self) -> Iterator[tuple[int, complex]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other: Multivector) -> Multivector:
        return combine(self, ((1, other),))

    def __sub__(self, other: Multivector) -> Multivector:
        return combine(self, ((-1, other),))

    def __neg__(self) -> Multivector:
        return _result(self.d, {m: -c for m, c in self._terms.items()})

    def __mul__(self, scalar: complex) -> Multivector:
        if isinstance(scalar, Multivector):
            return NotImplemented
        scalar = check_coeff(scalar)
        return _result(self.d, {m: c * scalar for m, c in self._terms.items()})

    __rmul__ = __mul__

    def __xor__(self, other: Multivector) -> Multivector:
        return wedge(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.d == other.d and self._terms == other._terms

    def __hash__(self) -> int:
        # equal coefficients hash equal, 0.0 and -0.0 parts included
        return hash((self.d, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"Multivector(d={self.d}, {self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()

    # ---- serialization ---------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, parseable back by the expression language."""
        from .textform import multivector_to_text

        return multivector_to_text(self)

    def to_json(self) -> dict:
        return {
            "dim": self.d,
            "terms": [
                {
                    "blade": list(indices_from_mask(m)),
                    "re": self._terms[m].real,
                    "im": self._terms[m].imag,
                }
                for m in self.sorted_masks()
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> Multivector:
        try:
            d = data["dim"]
            terms: dict[int, complex] = {}
            for t in data["terms"]:
                mask = mask_from_indices(d, t["blade"])
                terms[mask] = terms.get(mask, 0j) + _json_coeff(t)
        except (KeyError, TypeError) as err:
            raise SchemaError(
                'a multivector is {"dim": d, "terms": [{"blade": [...], "re": x, "im": y}, ...]}'
                f", got {data!r:.80} ({type(err).__name__}: {err})"
            ) from None
        return cls(d, terms)


def _json_coeff(entry: Mapping) -> complex:
    """complex(re, im) of a serialized entry; TypeError, which from_json
    reports as SchemaError, unless each part is an int or a float, and the
    ValueError of check_coeff on an int past the float range."""
    if not {type(entry["re"]), type(entry["im"])} <= {int, float}:
        raise TypeError("re and im must be int or float numbers")
    try:
        return complex(entry["re"], entry["im"])
    except OverflowError:
        raise ValueError(f"coefficient {entry['re']!r} + {entry['im']!r}j is not a number") from None


def _pruned(terms: dict[int, complex]) -> dict[int, complex]:
    """The terms above PRUNE_TOL; a NaN, inf or overflowing one is a ValueError naming its mask."""
    clean: dict[int, complex] = {}
    for mask, c in terms.items():
        try:
            size = abs(c)
        except OverflowError:
            raise ValueError(
                f"coefficient {c!r} on blade mask {mask:#x} has no finite magnitude"
            ) from None
        if size <= PRUNE_TOL:
            continue
        if not size < math.inf:  # inf, or NaN, which no comparison prunes
            raise ValueError(f"non-finite coefficient {c!r} on blade mask {mask:#x}")
        clean[mask] = c
    return clean


def _result(d: int, terms: dict[int, complex]) -> Multivector:
    """Multivector from a kernel's output, whose masks are in range and
    whose values are complex by construction: the constructor without its
    dimension, mask and coefficient-type checks."""
    out = object.__new__(Multivector)
    object.__setattr__(out, "d", d)
    object.__setattr__(out, "_terms", _pruned(terms))
    return out


def combine(first: Multivector, rest: Iterable[tuple[int, Multivector]]) -> Multivector:
    """first + sign * term for each (sign, term) of rest, added left to right.

    Bit for bit the chain of binary `+` and `-` it replaces: each term's
    coefficients are added (or negated and added), then the coefficients it
    touched are pruned as a constructor would prune them.  `rest` is consumed
    lazily, and a non-finite sum raises before the next term is drawn.
    """
    out = dict(first._terms)
    for sign, term in rest:
        check_same_dim(first, term)
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"sign {sign!r} is not the int 1 or -1")
        for m, c in term._terms.items():
            out[m] = out.get(m, 0j) + (c if sign > 0 else -c)
        for m in term._terms:
            try:
                size = abs(out[m])
            except OverflowError:
                size = math.inf
            if size <= PRUNE_TOL:
                del out[m]
            elif not size < math.inf:
                return _result(first.d, out)  # raises, naming the coefficient
    return _result(first.d, out)


def basis_vector(d: int, i: int) -> Multivector:
    """The one-fermion state e_i."""
    return Multivector.from_indices(d, (i,))


def all_blades(d: int) -> list[int]:
    """All 2^d blade masks in canonical (step, index tuple) order."""
    return sorted(range(1 << check_dim(d)), key=_canonical)


# ---- the three exterior operations ------------------------------------------


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Progressive product: joins two fermion systems, 0 on any shared state."""
    check_same_dim(a, b)
    if _dense_pays(a, b):
        from . import dense

        return dense.wedge(a, b)
    return _wedge_dict(a, b)


def _wedge_dict(a: Multivector, b: Multivector) -> Multivector:
    out: dict[int, complex] = {}
    for s, ca in a:
        for t, cb in b:
            if s & t:
                continue
            u = s | t
            out[u] = out.get(u, 0j) + merge_sign(s, t) * ca * cb
    return _result(a.d, out)


def hodge(a: Multivector) -> Multivector:
    """Star complement: swaps occupied states and holes, blade by blade."""
    out: dict[int, complex] = {}
    for mask, c in a:
        sign, comp = hodge_blade(a.d, mask)
        out[comp] = out.get(comp, 0j) + sign * c
    return _result(a.d, out)


def hodge_inverse(a: Multivector) -> Multivector:
    """Inverse of the star complement; hodge(hodge_inverse(x)) == x.

    Blade s goes to its complement with sign merge_sign(full ^ s, s): the
    star sign of s times the (-1)^(k(d-k)) that undoes a double star on step k.
    """
    full = (1 << a.d) - 1
    out: dict[int, complex] = {}
    for s, c in a:
        comp = full ^ s
        out[comp] = out.get(comp, 0j) + merge_sign(comp, s) * c
    return _result(a.d, out)


def vee(a: Multivector, b: Multivector) -> Multivector:
    """Regressive product: joins hole systems, 0 when steps fall short of d.

    Defined by duality, hodge_inverse(wedge(hodge(a), hodge(b))).  The dict
    kernel makes one pass over the pairs with s | t == full, the pairs whose
    stars are disjoint, and adds merge_sign(full ^ t, full ^ s) * ca * cb
    into s & t: the two star signs, the wedge's merge sign and the inverse
    star's sign multiplied out.
    """
    check_same_dim(a, b)
    if _dense_pays(a, b):
        from . import dense

        return dense.vee(a, b)
    return _vee_dict(a, b)


def _vee_dict(a: Multivector, b: Multivector) -> Multivector:
    full = (1 << a.d) - 1
    out: dict[int, complex] = {}
    for s, ca in a:
        for t, cb in b:
            if s | t != full:
                continue
            u = s & t
            out[u] = out.get(u, 0j) + merge_sign(full ^ t, full ^ s) * ca * cb
    return _result(a.d, out)


# Cost model in units of one dense table entry: a dict pair visit costs about
# 4 and the fixed numpy work of a dense product about 1024, so the dense
# kernel pays when 4*|a|*|b| > 1024 + 3^d.  Measured at d=4..12, it is then at
# least as fast as the dict kernel.  The first compare settles the common
# few-term case without computing 3^d.
_DICT_PAIR_COST = 4
_DENSE_OVERHEAD = 1024


def _dense_pays(a: Multivector, b: Multivector) -> bool:
    pairs = len(a._terms) * len(b._terms)
    return (
        pairs > _DENSE_OVERHEAD // _DICT_PAIR_COST
        and _DICT_PAIR_COST * pairs > _DENSE_OVERHEAD + 3 ** a.d
    )


def conjugate(a: Multivector) -> Multivector:
    """Complex-conjugate every coefficient; blades unchanged."""
    return _result(a.d, {m: c.conjugate() for m, c in a})


# ---- grade structure ---------------------------------------------------------


def step_of(a: Multivector) -> int | None:
    """Common step of all stored blades, or None for mixed-grade or zero input."""
    steps = {m.bit_count() for m, _ in a}
    if len(steps) == 1:
        return steps.pop()
    return None


def grade_project(a: Multivector, k: int) -> Multivector:
    check_step(k, a.d, "step")
    return _result(a.d, {m: c for m, c in a if m.bit_count() == k})


def parity_sector(a: Multivector) -> str:
    """'even', 'odd', or 'mixed' fermion-number parity of the stored blades."""
    parities = {m.bit_count() & 1 for m, _ in a}
    if parities == {1}:
        return "odd"
    if len(parities) == 2:
        return "mixed"
    return "even"


def covector(d: int, i: int) -> Multivector:
    """One-hole state: the star complement of e_i."""
    return hodge(basis_vector(d, i))


# ---- scalar product ----------------------------------------------------------


def scalar_product(a: Multivector, b: Multivector) -> complex:
    """Scalar product on a common step k: the scalar of vee(conjugate(a), hodge(b)).

    On step k that vee pairs blade s of a only with blade s of b, with folded
    sign +1, so this is the sum of conj(a_s) * b_s in a's term order, pruned
    at PRUNE_TOL like any coefficient.

    Defined only for homogeneous operands of equal step (the zero multivector
    is accepted with any partner and gives 0).
    """
    check_same_dim(a, b)
    ka, kb = step_of(a), step_of(b)
    if not a.is_zero() and ka is None:
        raise GradeError("left operand is not homogeneous")
    if not b.is_zero() and kb is None:
        raise GradeError("right operand is not homogeneous")
    if a.is_zero() or b.is_zero():
        return 0j
    if ka != kb:
        raise GradeError(f"scalar product undefined between steps {ka} and {kb}")
    bt = b._terms
    total = 0j
    for s, ca in a:
        if s in bt:
            total += ca.conjugate() * bt[s]
    return _result(a.d, {0: total})._terms.get(0, 0j)


# ---- comparison -------------------------------------------------------------


def mv_equal_approx(a: Multivector, b: Multivector, tol: float = PRUNE_TOL) -> bool:
    """True when no coefficient differs by more than tol, a non-negative real, else ValueError."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not tol >= 0:
        raise ValueError(f"tolerance {tol!r} is not a non-negative real")
    check_same_dim(a, b)
    for m in a._terms.keys() | b._terms.keys():
        if abs(a._terms.get(m, 0j) - b._terms.get(m, 0j)) > tol:
            return False
    return True
