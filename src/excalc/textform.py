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
One writer, `_json_doc`, gives `eval`'s and `table`'s JSON the bytes of
`json.dumps(..., indent=2)`.  `fock` keeps its compact one-line format, a
layout of its own, and a QubitState, which no hot path prints, `json.dumps`
of its own `to_json`.  Text, CSV and JSON read each blade's "e1^e3" label
from `multivector`'s byte tables.
`Cells` renders each distinct cell of an output grid once.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from .multivector import PRUNE_TOL, Multivector, _blade_bytes, _echo

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


def _labels(masks: Iterable[int]) -> list[str]:
    """The "e1^e3" label of each blade mask, "" for the scalar blade: its
    low byte's label and its high byte's, joined by a `^` when both are nonempty."""
    low, high = _blade_bytes()[1]
    return [
        f"{low[m & 255]}^{high[m >> 8]}" if m & 255 and m >> 8 else low[m & 255] or high[m >> 8]
        for m in masks
    ]


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
    terms, full = a._terms, (1 << a.d) - 1
    masks = a.sorted_masks()
    return pieces_to_text(
        (_readable(terms[m]), "E" if m == full else label or "1")
        for m, label in zip(masks, _labels(masks))
    )


def scalar_to_text(value: complex) -> str:
    """A bare complex scalar in the same piece notation, printed as a term's coefficient."""
    return pieces_to_text(((_readable(value), "1"),))


# the separator of a blade's indices in `json.dumps(value.to_json(), indent=2)`
_JSON_INDEX_SEP = ",\n        "


def _json_doc(head: dict, name: str, fields: tuple[str, ...], records: Iterable[tuple]) -> str:
    """`json.dumps(..., indent=2)` of the `head` fields, then `name`, a list of one
    object of the keys `fields` per record.  A value comes as its JSON text (a
    str's json.dumps) or as a number, whose %s is its JSON form."""
    item = "    {\n%s\n    }" % ",\n".join(f'      "{f}": %s' for f in fields)
    entries = ",\n".join(map(item.__mod__, records))
    lines = [f'  "{key}": {text}' for key, text in head.items()]
    lines.append(f'  "{name}": ' + (f"[\n{entries}\n  ]" if entries else "[]"))
    return "{\n%s\n}" % ",\n".join(lines)


def _json_text(value: Multivector) -> str:
    """`json.dumps(value.to_json(), indent=2)`; a blade's index list is its label
    with each `e` dropped, one index a line.  A subclass with its own `to_json`
    layout, a QubitState, goes through `json.dumps`."""
    if type(value).to_json is not Multivector.to_json:
        return json.dumps(value.to_json(), indent=2)
    masks = value.sorted_masks()
    records = (
        (f"[\n        {s[1:].replace('^e', _JSON_INDEX_SEP)}\n      ]" if s else "[]", c.real, c.imag)
        for s, c in zip(_labels(masks), map(value._terms.__getitem__, masks))
    )
    return _json_doc({"dim": value.d}, "terms", ("blade", "re", "im"), records)


def format_result(value: Multivector | complex, fmt: str) -> str:
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown format {_echo(fmt)}")
    if isinstance(value, Multivector):
        if fmt == "json":
            return _json_text(value)
        if fmt == "csv":
            terms = value._terms
            masks = value.sorted_masks()
            lines = ["blade,re,im"]
            lines.extend(
                f"{label or '1'},{terms[m].real!r},{terms[m].imag!r}"
                for m, label in zip(masks, _labels(masks))
            )
            return "\n".join(lines)
        return value.to_text()
    if fmt == "json":
        return json.dumps({"re": value.real, "im": value.imag})
    if fmt == "csv":
        return f"re,im\n{value.real!r},{value.imag!r}"
    return scalar_to_text(value)
