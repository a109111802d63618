"""Multi-qubit states and the exterior operations pulled onto them.

A d-qubit computational basis state maps to the blade occupying exactly the
modes whose qubit reads 1, so |0...0> is the scalar 1 and |1...1> is the top
blade.  A QubitState is a Multivector subclass, its multivector in ket
notation: the same masks and coefficients, printed (`str` included) and
serialized as kets.  `n_map` and `n_inverse` only change the class, sharing
the terms, and the gates q_wedge, q_vee and q_star hand the states straight
to the multivector kernels.  The inherited multivector operations (`+`, `-`,
scalar `*`, `^`, `hodge`, ...) take a state as its multivector and return a
Multivector; a state never equals a multivector.  A zero result (`is_zero`)
marks the operation as physically impossible for the states involved.
States are not normalized: the transferred operations do not preserve norms,
and the all-basis inner product kept here is bookkeeping for norms and tests
only, separate from the exterior-calculus scalar product.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import DimensionError
from .multivector import Multivector, _echo, _json_coeff, _reading, check_same_dim
from .multivector import hodge, vee, wedge
from .textform import pieces_to_text


def bits_to_mask(bits: Iterable[int]) -> int:
    mask = 0
    for pos, b in enumerate(bits):
        if type(b) is not int or b not in (0, 1):
            raise ValueError(f"bit value {_echo(b)} is not 0 or 1")
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
        raise ValueError(f"not a basis state: {_echo(text)}")
    return tuple(int(ch) for ch in body)


def format_basis_state(bits: Iterable[int]) -> str:
    bits = tuple(bits)
    bits_to_mask(bits)  # each bit is the int 0 or 1
    return "|" + "".join(map(str, bits)) + ">"


class QubitState(Multivector):
    """Sparse map from d-bit basis states to complex amplitudes.

    The multivector with the same masks and coefficients, printed and
    serialized as kets.
    """

    __slots__ = ()

    def __new__(cls, d: int, amps: Mapping[int, complex]):
        return n_inverse(Multivector(d, amps))

    @classmethod
    def basis(cls, bits: Iterable[int]) -> QubitState:
        bits = tuple(bits)
        return cls(len(bits), {bits_to_mask(bits): 1.0})

    amplitudes = Multivector.terms

    def amplitude(self, bits: Iterable[int]) -> complex:
        bits = tuple(bits)
        if len(bits) != self.d:
            raise DimensionError(f"bit string {format_basis_state(bits)} is not {self.d} bits")
        return self.coeff_mask(bits_to_mask(bits))

    def to_text(self) -> str:
        d, amps = self.d, self._terms
        return pieces_to_text(
            ((amps[m], format_basis_state(mask_to_bits(d, m))) for m in self.sorted_masks()),
            " ",
        )

    def to_json(self) -> dict:
        d, amps = self.d, self._terms
        return {
            "d": d,
            "amps": [
                {
                    "bits": "".join(str(b) for b in mask_to_bits(d, m)),
                    "re": amps[m].real,
                    "im": amps[m].imag,
                }
                for m in self.sorted_masks()
            ],
        }

    @classmethod
    def from_json(cls, data) -> QubitState:
        form = 'a qubit state is {"d": d, "amps": [{"bits": "01", "re": x, "im": y}, ...]}'
        with _reading(form, data):
            d = data["d"]  # the constructor checks it
            amps: dict[int, complex] = {}
            for entry in data["amps"]:
                bits = parse_basis_state(entry["bits"])
                if len(bits) != d:
                    raise DimensionError(
                        f"bit string {_echo(entry['bits'])} is not {_echo(d)} bits"
                    )
                mask = bits_to_mask(bits)
                amps[mask] = amps.get(mask, 0j) + _json_coeff(entry)
        return cls(d, amps)


# ---- the bijection with blades -------------------------------------------------


def n_map(s: QubitState) -> Multivector:
    return Multivector._build(s.d, s._terms)


def n_inverse(a: Multivector) -> QubitState:
    """The state with a's terms, the trusted build: a is immutable and checked, so no copy."""
    return QubitState._build(a.d, a._terms)


# ---- transferred operations ----------------------------------------------------


def q_wedge(s1: QubitState, s2: QubitState) -> QubitState:
    return n_inverse(wedge(s1, s2))


def q_vee(s1: QubitState, s2: QubitState) -> QubitState:
    return n_inverse(vee(s1, s2))


def q_star(s: QubitState) -> QubitState:
    return n_inverse(hodge(s))


def qubit_inner_product(s1: QubitState, s2: QubitState) -> complex:
    """Plain all-basis inner product <s1|s2>; bookkeeping, not the exterior one."""
    check_same_dim(s1, s2)
    a1, a2 = s1._terms, s2._terms
    small, large = (a1, a2) if len(a1) <= len(a2) else (a2, a1)
    return sum((a1[m].conjugate() * a2[m] for m in small if m in large), 0j)
