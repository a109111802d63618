"""Canonical text rendering of multivectors, scalars and qubit states.

Everything prints as a sum of signed pieces, one per nonzero real or
imaginary part of a coefficient, each a plain literal times a label:
"0", "1", "E", "e1^e3", "2.5 * e1 - i * E", "0.5i * e2^e3", ...  Multivector
and scalar output re-parses under the expression grammar.  Qubit states use
the same pieces with a ket label and a space, as in "i |10> - 0.5 |11>".
"""

from __future__ import annotations

from typing import Iterable

from .multivector import Multivector, indices_from_mask


def format_number(x: float) -> str:
    """Shortest exact decimal for a float; integers drop the trailing .0."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def blade_to_text(d: int, mask: int) -> str:
    if mask == 0:
        return "1"
    if mask == (1 << d) - 1:
        return "E"
    return "^".join(f"e{i}" for i in indices_from_mask(mask))


def _piece(value: float, imag: bool, label: str, sep: str) -> str:
    """One piece without its sign; the label "1" leaves only the number."""
    mag = abs(value)
    unit = "i" if imag else ""
    if label == "1":
        return "i" if (imag and mag == 1.0) else format_number(mag) + unit
    if mag == 1.0:
        return f"i{sep}{label}" if imag else label
    return f"{format_number(mag)}{unit}{sep}{label}"


def pieces_to_text(items: Iterable[tuple[complex, str]], sep: str = " * ") -> str:
    """Join (coefficient, label) items as signed pieces; "0" when all vanish."""
    out: list[str] = []
    for c, label in items:
        for value, imag in ((c.real, False), (c.imag, True)):
            if value != 0.0:
                if out:
                    out.append(" - " if value < 0 else " + ")
                elif value < 0:
                    out.append("-")
                out.append(_piece(value, imag, label, sep))
    return "".join(out) or "0"


def multivector_to_text(a: Multivector) -> str:
    return pieces_to_text((a.coeff_mask(m), blade_to_text(a.d, m)) for m in a.sorted_masks())


def scalar_to_text(value: complex) -> str:
    """A bare complex scalar in the same piece notation, never pruned."""
    return pieces_to_text(((value, "1"),))
