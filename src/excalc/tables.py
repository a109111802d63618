"""Gate tables: every basis pair under one binary operation.

Rows list all ordered pairs of basis elements (blades, subsets, or qubit
basis states) in (step, index) order with the operation result in the last
column, the same tall layout the reference tables use.  Partial set
operations leave an empty cell where they are undefined.

A table makes one product call per row, not one per pair: the row's basis
element times the tagged sum of all basis elements, read back by
`multivector._blade_images` as the blade and sign each partner lands on.
Each cell is keyed by that hit, (blade, sign) or None for a zero product,
and each distinct hit is rendered once; a basis label is the cell of its
(blade, 1) hit, and a set-gate cell applies `m_inverse`'s domain rule to its hit.
Printing works per distinct string too: each label and cell is rendered once
into the fragment its format puts around it (padded with the two-blank gap,
quoted between the pieces of `eval`'s JSON writer `textform._json_doc`, or
quoted as one `csv.writer` field), and a line is its fragments joined.  The
output is the bytes of formatting each row on its own.  The text grid and CSV
stay here, out of `textform`, which every command loads.
"""

from __future__ import annotations

import csv
import io
import json
from functools import partial
from itertools import chain, repeat
from operator import itemgetter

from .boolean_gates import m_inverse
from .errors import DimensionError
from .multivector import Multivector, _blade_images, _echo, all_blades, check_dim, vee, wedge
from .qubits import QubitState, q_vee, q_wedge
from .textform import TABLE_FORMATS, TABLE_OPS, Cells, _json_doc  # noqa: F401 (TABLE_OPS is re-exported)

TABLE_MAX_DIM = 6


def _subset_text(value: Multivector) -> str:
    """The subset whose blade the value is, or "" off the domain."""
    s = m_inverse(value)
    return "" if s is None else s.to_text()


def table_rows(op: str, d: int) -> list[tuple[str, str, str]]:
    check_dim(d)
    if d > TABLE_MAX_DIM:
        raise DimensionError(f"full tables limited to d <= {TABLE_MAX_DIM}")
    tables = {  # op -> (class of the basis elements, their product, the text of a value)
        "wedge": (Multivector, wedge, Multivector.to_text),
        "vee": (Multivector, vee, Multivector.to_text),
        "pseudo-wedge": (Multivector, wedge, _subset_text),
        "pseudo-vee": (Multivector, vee, _subset_text),
        "q-wedge": (QubitState, q_wedge, QubitState.to_text),
        "q-vee": (QubitState, q_vee, QubitState.to_text),
    }
    if op not in tables:
        raise ValueError(f"unknown table op {_echo(op)}")
    cls, product, show = tables[op]
    cells = Cells(lambda hit: show(cls._build(d, {} if hit is None else {hit[0]: hit[1]})))
    masks = all_blades(d)
    basis = [cls._build(d, {m: 1 + 0j}) for m in masks]
    # a basis element shows as its own label, the cell of its (m, 1) hit: a
    # set gate's is its subset
    labels = [cells[m, 1 + 0j] for m in masks]
    rows = []
    images = _blade_images(d, [partial(product, a) for a in basis])
    for label, image in zip(labels, images):
        rows.extend(zip(repeat(label), labels, map(cells.__getitem__, image)))
    return rows


def _row_fragments(rows, memos):
    """Each row's fragments, one tuple a row: its cell i through `memos[i]`."""
    return zip(*(map(memo.__getitem__, map(itemgetter(i), rows)) for i, memo in enumerate(memos)))


def _csv_fields(end: str) -> Cells:
    """Render-once map from a string to its `csv.writer` field, then `end`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def field(s: str) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow((s, ""))  # a lone empty field would print as ""
        return buf.getvalue()[:-2] + end

    return Cells(field)


def table_command(op: str, d: int, fmt: str = "text") -> str:
    """Render the full pair table for one operation as text, json, or csv."""
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown format {_echo(fmt)}")
    rows = table_rows(op, d)
    header = ("a", "b", op)
    if fmt == "json":
        # `eval`'s writer on two records of NUL placeholders, cut at them: the
        # document's start, the text after each field of a record, its end
        head = {"op": json.dumps(op), "dim": d}
        doc = _json_doc(head, "entries", ("a", "b", "result"), [("\0",) * 3] * 2)
        start, *after, _, _, end = doc.split("\0")
        quoted = [Cells(lambda s, t=t: json.dumps(s) + t) for t in after]
        body = "".join(chain.from_iterable(_row_fragments(rows, quoted)))
        return start + body[: -len(after[2])] + end
    if fmt == "csv":
        comma = _csv_fields(",")
        fields = _row_fragments([header, *rows], (comma, comma, _csv_fields("\n")))
        return "".join(chain.from_iterable(fields))
    distinct = [set(map(itemgetter(i), rows)) for i in range(3)]
    widths = [max(map(len, strings | {h})) for h, strings in zip(header, distinct)]
    padded = [Cells(lambda s, w=w: s.ljust(w) + "  ") for w in widths[:2]]
    lines = map("".join, _row_fragments(rows, (*padded, Cells(str))))
    # a line ends in blanks only where its last cell does or is empty: strip those
    if any(s.rstrip() != s or not s for s in distinct[2]):
        lines = map(str.rstrip, lines)
    rule = "  ".join("-" * w for w in widths)
    return "\n".join(chain(("  ".join(map(str.ljust, header, widths)), rule), lines)) + "\n"
