"""Multi-qubit states and the exterior operations pulled onto them.

A d-qubit computational basis state maps to the blade occupying exactly the
modes whose qubit reads 1, so |0...0> is the scalar 1 and |1...1> is the top
blade.  A QubitState is a view of the Multivector with the same masks and
coefficients: it stores nothing else, `n_map` and `n_inverse` only unwrap and
wrap, and wedge, vee and the star complement run the multivector kernels
directly.  A zero result (`is_zero`) marks the operation as physically
impossible for the states involved.  States are not normalized: the
transferred operations do not preserve norms, and the all-basis inner product
kept here is bookkeeping for norms and tests only, separate from the
exterior-calculus scalar product.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import DimensionError, SchemaError
from .multivector import Multivector, _json_coeff, check_same_dim, hodge, vee, wedge
from .textform import pieces_to_text


def bits_to_mask(bits: Iterable[int]) -> int:
    mask = 0
    for pos, b in enumerate(bits):
        if type(b) is not int or b not in (0, 1):
            raise ValueError(f"bit value {b!r} is not 0 or 1")
        if b:
            mask |= 1 << pos
    return mask


def mask_to_bits(d: int, mask: int) -> tuple[int, ...]:
    return tuple((mask >> pos) & 1 for pos in range(d))


def parse_basis_state(text: str) -> tuple[int, ...]:
    """Accepts "101", "|101>" or "|101⟩"; returns the bit tuple."""
    body = text.strip()
    if body.startswith("|"):
        body = body[1:]
    for closer in (">", "⟩"):
        if body.endswith(closer):
            body = body[: -len(closer)]
    body = body.replace(",", "")
    if not body or any(ch not in "01" for ch in body):
        raise ValueError(f"not a basis state: {text!r}")
    return tuple(int(ch) for ch in body)


def format_basis_state(bits: Iterable[int]) -> str:
    bits = tuple(bits)
    bits_to_mask(bits)  # each bit is the int 0 or 1
    return "|" + "".join(map(str, bits)) + ">"


class QubitState:
    """Sparse map from d-bit basis states to complex amplitudes.

    A view of the multivector with the same masks and coefficients, which
    does all the storing and checking.
    """

    __slots__ = ("_mv",)

    def __init__(self, d: int, amps: Mapping[int, complex]):
        object.__setattr__(self, "_mv", Multivector(d, amps))

    def __setattr__(self, name, value):
        raise AttributeError("QubitState is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, as for Multivector
        return QubitState, (self.d, self.amplitudes())

    @classmethod
    def basis(cls, bits: Iterable[int]) -> QubitState:
        bits = tuple(bits)
        return cls(len(bits), {bits_to_mask(bits): 1.0})

    @classmethod
    def zero(cls, d: int) -> QubitState:
        return cls(d, {})

    @property
    def d(self) -> int:
        return self._mv.d

    def amplitudes(self) -> dict[int, complex]:
        return self._mv.terms()

    def amplitude(self, bits: Iterable[int]) -> complex:
        bits = tuple(bits)
        if len(bits) != self.d:
            raise DimensionError(f"bit string {format_basis_state(bits)} is not {self.d} bits")
        return self._mv.coeff_mask(bits_to_mask(bits))

    def is_zero(self) -> bool:
        return self._mv.is_zero()

    def __iter__(self):
        return iter(self._mv)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QubitState):
            return NotImplemented
        return self._mv == other._mv

    def __hash__(self) -> int:
        return hash(self._mv)

    def __repr__(self) -> str:
        return f"QubitState(d={self.d}, {self.to_text()!r})"

    def to_text(self) -> str:
        d, amps = self.d, self._mv.terms()
        return pieces_to_text(
            (
                (amps[m], format_basis_state(mask_to_bits(d, m)))
                for m in self._mv.sorted_masks()
            ),
            " ",
        )

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "amps": [
                {
                    "bits": "".join(str(b) for b in mask_to_bits(self.d, mask)),
                    "re": c.real,
                    "im": c.imag,
                }
                for mask, c in sorted(self._mv)
            ],
        }

    @classmethod
    def from_json(cls, data) -> QubitState:
        try:
            d = data["d"]  # the constructor checks it
            amps: dict[int, complex] = {}
            for entry in data["amps"]:
                bits = parse_basis_state(entry["bits"])
                if len(bits) != d:
                    raise DimensionError(f"bit string {entry['bits']!r} is not {d!r} bits")
                mask = bits_to_mask(bits)
                amps[mask] = amps.get(mask, 0j) + _json_coeff(entry)
        except (KeyError, TypeError, AttributeError) as err:
            raise SchemaError(
                'a qubit state is {"d": d, "amps": [{"bits": "01", "re": x, "im": y}, ...]}'
                f", got {data!r:.80} ({type(err).__name__}: {err})"
            ) from None
        return cls(d, amps)


# ---- the bijection with blades -------------------------------------------------


def n_map(s: QubitState) -> Multivector:
    return s._mv


def n_inverse(a: Multivector) -> QubitState:
    """The state viewing a; a is immutable and already checked, so no copy."""
    s = object.__new__(QubitState)
    object.__setattr__(s, "_mv", a)
    return s


# ---- transferred operations ----------------------------------------------------


def q_wedge(s1: QubitState, s2: QubitState) -> QubitState:
    return n_inverse(wedge(n_map(s1), n_map(s2)))


def q_vee(s1: QubitState, s2: QubitState) -> QubitState:
    return n_inverse(vee(n_map(s1), n_map(s2)))


def q_star(s: QubitState) -> QubitState:
    return n_inverse(hodge(n_map(s)))


def qubit_inner_product(s1: QubitState, s2: QubitState) -> complex:
    """Plain all-basis inner product <s1|s2>; bookkeeping, not the exterior one."""
    check_same_dim(s1, s2)
    a1, a2 = s1.amplitudes(), s2.amplitudes()
    if len(a2) < len(a1):
        a1, a2 = a2, a1
    return sum((c.conjugate() * a2[m] for m, c in a1.items() if m in a2), 0j)
