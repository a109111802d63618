"""Sparse multivectors over a d-dimensional complex vector space.

A basis blade e_{i1}^...^e_{ik} (i1 < ... < ik, indices 1..d) is encoded as a
bitmask with bit i-1 set for index i.  The empty mask is the scalar blade "1"
(the fermionic vacuum), the full mask is the top blade "E" (every state
occupied).  A multivector is a finite blade -> complex coefficient map; the
zero multivector has no terms and is distinct from the vacuum scalar 1.

One rule, `_kept`, stores a coefficient above PRUNE_TOL, prunes one at or
below it and rejects a non-finite one.  A kernel's `_result` owns the dict it
is given: a fresh dict with nothing to prune becomes the value's terms.  A
map that stores only +-c or conj(c) of coefficients already kept (`hodge`,
`hodge_inverse`, `conjugate`, negation, `grade_project`) has nothing to
prune and builds with `Multivector._build` directly.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from functools import lru_cache
from operator import attrgetter

from .errors import DimensionError, GradeError, IndexRangeError, SchemaError

MAX_DIM = 16
# Absolute magnitude that counts as zero: stored terms, unit-coefficient matches and
# default comparisons, as is_decomposable's on a copy scaled to peak 1 (so relative).
PRUNE_TOL = 1e-12
# Relative pivot threshold: a pivot at most this times the largest entry
# (or 1) makes a determinant 0 and does not add to a rank.
SINGULAR_TOL = 1e-12
# Absolute tolerance of a randomized identity whose two sides are summed in
# different orders (associativity, star duality, antisymmetry, the determinant
# routes and the superposition examples); coefficient parts lie in (-2, 2).
IDENTITY_TOL = 1e-10


# ---- argument kinds: one checker each; a bool is never an int of these kinds ----


def _echo(value) -> str:
    """repr(value) as an error quotes it: at most 80 characters, then `...`.
    An int of b > 300 bits is first divided down to its leading 86 to 88
    digits, so no int meets the interpreter's limit on converting thousands
    of digits: it has more than (b - 1) * 0.3010299 < (b - 1) * log10(2)."""
    if isinstance(value, int) and value.bit_length() > 300:
        size = abs(value)
        drop = (size.bit_length() - 1) * 3010299 // 10**7 - 85
        text = ("-" if value < 0 else "") + str(size // 10**drop)
    else:
        text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


def check_dim(d: int) -> int:
    """A space dimension: an int in 1..MAX_DIM, else DimensionError."""
    if type(d) is not int or not 1 <= d <= MAX_DIM:
        raise DimensionError(f"dimension must be an integer in 1..{MAX_DIM}, got {_echo(d)}")
    return d


def check_index(d: int, i: int) -> int:
    """A 1-based mode index: an int in 1..d, else IndexRangeError."""
    if type(i) is not int or not 1 <= i <= d:
        raise IndexRangeError(f"basis index {_echo(i)} outside 1..{d}")
    return i


def check_step(k: int, top: int, what: str) -> int:
    """A step (grade or split class): an int in 0..top, else GradeError."""
    if type(k) is not int or not 0 <= k <= top:
        raise GradeError(f"{what} {_echo(k)} outside 0..{top}")
    return k


def check_mask(d: int, mask: int) -> int:
    """A blade mask: an int in 0..2^d - 1, else IndexRangeError."""
    if type(mask) is not int or not 0 <= mask < 1 << d:
        raise IndexRangeError(f"blade mask {_echo(mask)} outside dimension {d}")
    return mask


def check_coeff(c: complex) -> complex:
    """A finite complex from what complex() takes, but not a bool or a str, else ValueError."""
    if type(c) is not complex:
        if isinstance(c, (bool, str)):  # complex() reads these as numbers
            raise ValueError(f"coefficient {_echo(c)} is not a number")
        try:
            c = complex(c)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"coefficient {_echo(c)} is not a number") from None
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


# The blade record of each byte of a mask, at bit offsets 0 and 8, so two
# bytes cover MAX_DIM: its ascending index tuple and its label, "e1^e3" for
# 0b101 at offset 0, "e9^e11" at offset 8, and () and "" for 0.  A mask's
# record is its low byte's followed by its high byte's.  No record is kept per
# mask: the tables hold 2 * 256 entries of each kind, whatever the dimension.
@lru_cache(maxsize=None)
def _blade_bytes() -> tuple:
    """((low, high) index tables, (low, high) label tables), built on first
    use, not at import: each byte's entry extends that of the byte without
    its top bit."""
    indices, labels = ([()], [()]), ([""], [""])
    for offset, index_table, label_table in zip((0, 8), indices, labels):
        for byte in range(1, 256):
            top = byte.bit_length()
            rest = byte ^ 1 << top - 1
            i = top + offset
            index_table.append(index_table[rest] + (i,))
            label_table.append(f"{label_table[rest]}^e{i}" if rest else f"e{i}")
    return indices, labels


def _canonical(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key of the canonical blade order: step, then index tuple."""
    low, high = _blade_bytes()[0]
    return mask.bit_count(), low[mask & 255] + high[mask >> 8]


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Ascending 1-based indices of a blade mask of any dimension."""
    check_mask(MAX_DIM, mask)
    low, high = _blade_bytes()[0]
    return low[mask & 255] + high[mask >> 8]


def _prefix_parity(a):
    """Bit j is the parity of a's bits above j, on an int or an int array of MAX_DIM-bit masks."""
    p = a >> 1
    p ^= p >> 1
    p ^= p >> 2
    p ^= p >> 4
    p ^= p >> 8
    return p


def merge_sign(a: int, b: int) -> int:
    """Parity sign of merging two disjoint blades: (-1)^|{(i,j): i in a, j in b, i > j}|."""
    return -1 if (_prefix_parity(a) & b).bit_count() & 1 else 1


def star_sign(mask: int) -> int:
    """The sign that makes blade ^ star = E, (-1)^(i1 + ... + ik - k(k+1)/2) on
    indices i1..ik, at any d: the parity of the even indices plus C(k, 2)."""
    k = mask.bit_count()
    return -1 if ((mask & 0xAAAA).bit_count() + (k * (k - 1) >> 1)) & 1 else 1


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


class _Record(_Value):
    """An immutable _Value of two fields, `d` and one more.  Its constructor, a
    `__new__`, checks the arguments and returns `cls._build(d, field)`, made by
    `_Record`, the one place that sets the fields; a multivector kernel's
    `_result` prunes and then builds.  Copy and pickle rebuild through the constructor."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        set_d, set_field = (getattr(cls, f).__set__ for f in cls.__match_args__)
        new = object.__new__

        def build(d, field):
            out = new(cls)
            set_d(out, d)
            set_field(out, field)
            return out

        cls._build = staticmethod(build)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__match_args__)


class Multivector(_Record):
    """Immutable sparse multivector.  Build via the classmethods or module ops."""

    __slots__ = __match_args__ = ("d", "_terms")

    def __new__(cls, d: int, terms: Mapping[int, complex]):
        check_dim(d)
        full = (1 << d) - 1
        checked: dict[int, complex] = {}
        for mask, c in terms.items():
            # the checkers run only on what is not an in-range int mask and a complex
            if type(mask) is not int or mask & ~full:
                check_mask(d, mask)
            checked[mask] = c if type(c) is complex else check_coeff(c)
        return _result(d, checked)

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
        return Multivector._build(self.d, {m: -c for m, c in self._terms.items()})

    def __mul__(self, scalar: complex) -> Multivector:
        if isinstance(scalar, Multivector):
            return NotImplemented
        scalar = check_coeff(scalar)
        return _result(self.d, {m: c * scalar for m, c in self._terms.items()})

    __rmul__ = __mul__

    def __xor__(self, other: Multivector) -> Multivector:
        return wedge(self, other)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.d == other.d and self._terms == other._terms

    def __hash__(self) -> int:
        # equal coefficients hash equal, 0.0 and -0.0 parts included
        return hash((self.d, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(d={self.d}, {self.to_text()!r})"

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
        form = 'a multivector is {"dim": d, "terms": [{"blade": [...], "re": x, "im": y}, ...]}'
        with _reading(form, data):
            d = data["dim"]
            terms: dict[int, complex] = {}
            for t in data["terms"]:
                mask = mask_from_indices(d, t["blade"])
                terms[mask] = terms.get(mask, 0j) + _json_coeff(t)
        return cls(d, terms)


@contextmanager
def _reading(form: str, data):
    """A `from_json` body: a KeyError, TypeError or AttributeError in it is a
    SchemaError naming the form and quoting at most 80 characters of data."""
    try:
        yield
    except (KeyError, TypeError, AttributeError) as err:
        try:
            got = f"{data!r:.80}"
        except ValueError:  # an int past the interpreter's limit on decimal conversion
            got = f"{type(data).__name__} holding an int past the digit limit"
        raise SchemaError(f"{form}, got {got} ({type(err).__name__}: {err})") from None


def _json_coeff(entry: Mapping) -> complex:
    """complex(re, im) of a serialized entry; TypeError, which from_json
    reports as SchemaError, unless each part is an int or a float, and the
    ValueError of check_coeff on an int past the float range."""
    if not {type(entry["re"]), type(entry["im"])} <= {int, float}:
        raise TypeError("re and im must be int or float numbers")
    try:
        return complex(entry["re"], entry["im"])
    except OverflowError:
        re, im = _echo(entry["re"]), _echo(entry["im"])
        raise ValueError(f"coefficient {re} + {im}j is not a number") from None


def _kept(mask: int, c: complex) -> bool:
    """Whether c is stored: True above PRUNE_TOL, False at or below it; a NaN,
    inf or overflowing c is a ValueError naming its mask."""
    try:
        size = abs(c)
    except OverflowError:
        raise ValueError(
            f"coefficient {c!r} on blade mask {mask:#x} has no finite magnitude"
        ) from None
    if size <= PRUNE_TOL:
        return False
    if not size < math.inf:  # inf, or NaN, which no comparison prunes
        raise ValueError(f"non-finite coefficient {c!r} on blade mask {mask:#x}")
    return True


def _pruned(terms: dict[int, complex]) -> dict[int, complex]:
    """The terms `_kept` keeps, in their order."""
    return {mask: c for mask, c in terms.items() if _kept(mask, c)}


def _result(d: int, terms: dict[int, complex]) -> Multivector:
    """Multivector from a kernel's output, masks in range and values complex by
    construction: the prune check, then the trusted build `Multivector._build`.
    The constructor calls it after its dimension, mask and coefficient-type
    checks.  Every caller hands over a dict it just built: kept as it is when
    every term is above PRUNE_TOL and finite (`_kept`'s bound, inlined for
    dense results), else copied by `_pruned`."""
    try:
        for c in terms.values():
            if not PRUNE_TOL < abs(c) < math.inf:
                terms = _pruned(terms)
                break
    except OverflowError:  # no finite magnitude: _pruned names the term
        terms = _pruned(terms)
    return Multivector._build(d, terms)


def combine(first: Multivector, rest: Iterable[tuple[int, Multivector]]) -> Multivector:
    """first + sign * term for each (sign, term) of rest, added left to right.

    Bit for bit the chain of binary `+` and `-` it replaces: each coefficient
    a term touches is added (or negated and added), then goes through `_kept`,
    so the sum is built as it stands.  `rest` is consumed lazily: a sum raises
    on the term's first non-finite coefficient, before the next term is drawn.
    """
    out = dict(first._terms)
    for sign, term in rest:
        check_same_dim(first, term)
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"sign {_echo(sign)} is not the int 1 or -1")
        _add_terms(out, sign, term._terms.items())
    return Multivector._build(first.d, out)


def _add_terms(out: dict[int, complex], sign: int, items: Iterable[tuple[int, complex]]) -> None:
    """Add c, or -c for sign -1, into out[m] for each (m, c) of items; each
    sum then stays in out only if `_kept` keeps it, and a non-finite one raises."""
    for m, c in items:
        out[m] = c = out.get(m, 0j) + (c if sign > 0 else -c)
        if not _kept(m, c):
            del out[m]


@lru_cache(maxsize=None, typed=True)
def basis_vector(d: int, i: int) -> Multivector:
    """The one-fermion state e_i, built once per (d, i)."""
    return Multivector.from_indices(d, (i,))


def all_blades(d: int) -> list[int]:
    """All 2^d blade masks in canonical (step, index tuple) order."""
    return sorted(range(1 << check_dim(d)), key=_canonical)


def _blade_images(d: int, maps: Iterable) -> list[list]:
    """The image of every basis blade under each map, from one call of the map.

    Each map must be linear, send each blade to +-1 times a blade or to 0, and
    send distinct blades to distinct blades.  It is called once, on the
    sum of all 2^d blades with blade number n (in `all_blades` order) tagged
    by the exact coefficient n + 1, a sum built once for all the maps; each
    output term (u, c) then names its source blade by |c| - 1 and its sign by
    c / |c|.  Per map, a list whose entry n is (u, c / |c|), where blade n
    goes, or None where it goes to 0.
    """
    tagged = Multivector._build(d, {m: complex(n + 1) for n, m in enumerate(all_blades(d))})
    images = []
    for f in maps:
        image = [None] * (1 << d)
        for u, c in f(tagged)._terms.items():
            size = abs(c)
            image[int(size) - 1] = (u, c / size)
        images.append(image)
    return images


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
    for s, ca in a._terms.items():
        for t, cb in b._terms.items():
            if s & t:
                continue
            u = s | t
            out[u] = out.get(u, 0j) + merge_sign(s, t) * ca * cb
    return _result(a.d, out)


def hodge(a: Multivector) -> Multivector:
    """Star complement: swaps occupied states and holes, blade by blade.
    A bijection on blades, so no two terms meet."""
    full = (1 << a.d) - 1
    return Multivector._build(a.d, {full ^ s: 0j + star_sign(s) * c for s, c in a._terms.items()})


def hodge_inverse(a: Multivector) -> Multivector:
    """Inverse of the star complement; hodge(hodge_inverse(x)) == x.

    Blade s goes to its complement with the star sign of that complement,
    merge_sign(full ^ s, s): the star sign of s times the (-1)^(k(d-k)) that
    undoes a double star on step k.
    """
    full = (1 << a.d) - 1
    return Multivector._build(
        a.d, {full ^ s: 0j + star_sign(full ^ s) * c for s, c in a._terms.items()}
    )


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
    for s, ca in a._terms.items():
        for t, cb in b._terms.items():
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


def _dense_fold_pays(d: int, k: int) -> bool:
    """Whether `extensors.expand` folds k factors of d modes on arrays.

    The fold visits V = sum_{j<k} C(d, j)(d - j) (blade, mode) pairs, at most
    d*2^(d-1).  In the units above a dict visit costs 4, and the array fold
    under 1 per visit plus under _DENSE_OVERHEAD (measured at d=6..16), so in
    a running process it pays from about 200 visits.  But its first call
    imports numpy, about 10^6 units.  So the cut is V > _DENSE_OVERHEAD, the
    most visits a list of d <= 8 modes makes: every such list, `verify-paper`'s
    among them, stays on the dict fold and out of numpy, and the first compare
    settles it.
    """
    return (
        d << d - 1 > _DENSE_OVERHEAD
        and sum(math.comb(d, j) * (d - j) for j in range(k)) > _DENSE_OVERHEAD
    )


def conjugate(a: Multivector) -> Multivector:
    """Complex-conjugate every coefficient; blades unchanged."""
    return Multivector._build(a.d, {m: c.conjugate() for m, c in a._terms.items()})


# ---- grade structure ---------------------------------------------------------


def step_of(a: Multivector) -> int | None:
    """Common step of all stored blades, or None for mixed-grade or zero input."""
    steps = {m.bit_count() for m in a._terms}
    if len(steps) == 1:
        return steps.pop()
    return None


def grade_project(a: Multivector, k: int) -> Multivector:
    check_step(k, a.d, "step")
    return Multivector._build(a.d, {m: c for m, c in a._terms.items() if m.bit_count() == k})


def parity_sector(a: Multivector) -> str:
    """'even', 'odd', or 'mixed' fermion-number parity of the stored blades."""
    parities = {m.bit_count() & 1 for m in a._terms}
    if parities == {1}:
        return "odd"
    if len(parities) == 2:
        return "mixed"
    return "even"


@lru_cache(maxsize=None, typed=True)
def covector(d: int, i: int) -> Multivector:
    """One-hole state: the star complement of e_i, built once per (d, i)."""
    return hodge(basis_vector(d, i))


# ---- scalar product ----------------------------------------------------------


def scalar_product(a: Multivector, b: Multivector) -> complex:
    """Scalar product on a common step k: the scalar of vee(conjugate(a), hodge(b)).

    On step k that vee pairs blade s of a only with blade s of b, with folded
    sign +1, so this is the sum of conj(a_s) * b_s in a's term order, kept,
    pruned or rejected by `_kept` like any stored coefficient.

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
    for s, ca in a._terms.items():
        if s in bt:
            total += ca.conjugate() * bt[s]
    return total if _kept(0, total) else 0j


# ---- comparison -------------------------------------------------------------


def mv_equal_approx(a: Multivector, b: Multivector, tol: float = PRUNE_TOL) -> bool:
    """True when no coefficient differs by more than tol, a non-negative real, else ValueError."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not tol >= 0:
        raise ValueError(f"tolerance {_echo(tol)} is not a non-negative real")
    check_same_dim(a, b)
    for m in a._terms.keys() | b._terms.keys():
        if abs(a._terms.get(m, 0j) - b._terms.get(m, 0j)) > tol:
            return False
    return True
