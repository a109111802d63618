"""Canonical text rendering of multivectors, scalars and qubit states.

Everything prints as a sum of signed pieces, one per nonzero real or
imaginary part of a coefficient, each a plain literal times a label:
"0", "1", "E", "e1^e3", "2.5 * e1 - i * E", "0.5i * e2^e3", ...  Multivector
and scalar output re-parses under the expression grammar, and reads back as
itself: a part at most PRUNE_TOL, which the parser prunes on its own, prints
as 0.  Qubit states use the same pieces with a ket label and a space, as in
"i |10> - 0.5 |11>".
`format_result` renders an evaluated expression as text, JSON or CSV; the CSV
rows come from the terms, so a qubit state's CSV is its multivector's.
`Cells` renders each distinct cell of an output grid once.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from .multivector import PRUNE_TOL, Multivector, indices_from_mask

# The operations of the full pair tables and the output formats of those tables
# and of `eval`, named here so the CLI can offer them without importing `excalc.tables`.
TABLE_OPS = ("wedge", "vee", "pseudo-wedge", "pseudo-vee", "q-wedge", "q-vee")
TABLE_FORMATS = ("text", "json", "csv")


class Cells(dict):
    """Render-once memo for an output grid: `cells[key]` renders a key the
    first time it is read and keeps the text, so equal keys print alike."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


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


def _readable(c: complex) -> complex:
    """A coefficient with each part at most PRUNE_TOL zeroed; as a term's or
    an ip(...) value's |c| > PRUNE_TOL, only a c with two nonzero parts has one."""
    re, im = c.real, c.imag
    if re and im and min(abs(re), abs(im)) <= PRUNE_TOL:
        return complex(re if abs(re) > PRUNE_TOL else 0.0, im if abs(im) > PRUNE_TOL else 0.0)
    return c


def multivector_to_text(a: Multivector) -> str:
    terms = a._terms
    return pieces_to_text((_readable(terms[m]), blade_to_text(a.d, m)) for m in a.sorted_masks())


def scalar_to_text(value: complex) -> str:
    """A bare complex scalar in the same piece notation, printed as a term's coefficient."""
    return pieces_to_text(((_readable(value), "1"),))


def format_result(value: Multivector | complex, fmt: str) -> str:
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(value, Multivector):
        if fmt == "json":
            return json.dumps(value.to_json(), indent=2)
        if fmt == "csv":
            terms = value._terms
            lines = ["blade,re,im"]
            for m in value.sorted_masks():
                blade = "^".join(f"e{i}" for i in indices_from_mask(m)) or "1"
                lines.append(f"{blade},{terms[m].real!r},{terms[m].imag!r}")
            return "\n".join(lines)
        return value.to_text()
    if fmt == "json":
        return json.dumps({"re": value.real, "im": value.imag})
    if fmt == "csv":
        return f"re,im\n{value.real!r},{value.imag!r}"
    return scalar_to_text(value)
