"""Gate tables: every basis pair under one binary operation.

Rows list all ordered pairs of basis elements (blades, subsets, or qubit
basis states) in (step, index) order with the operation result in the last
column, the same tall layout the reference tables use.  Partial set
operations leave an empty cell where they are undefined.

A table makes one product call per row, not one per pair: the row's basis
element times the tagged sum of all basis elements, read back by
`multivector._blade_images` as the blade and sign each partner lands on.
Each cell is keyed by that hit, (blade, sign) or None for a zero product,
and each distinct hit is rendered once; a set-gate cell applies
`m_inverse`'s domain rule to its hit.
The JSON comes from `eval`'s writer, `textform._json_doc`; the text grid and
CSV stay here, out of `textform`, which every command loads.
"""

from __future__ import annotations

import csv
import io
import json
from functools import partial
from itertools import repeat

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
    basis = [cls._build(d, {m: 1 + 0j}) for m in all_blades(d)]
    # a basis element shows as its own label: a set gate's is its subset
    labels = [show(x) for x in basis]
    cells = Cells(lambda hit: show(cls._build(d, {} if hit is None else {hit[0]: hit[1]})))
    rows = []
    images = _blade_images(d, [partial(product, a) for a in basis])
    for label, image in zip(labels, images):
        rows.extend(zip(repeat(label), labels, map(cells.__getitem__, image)))
    return rows


def table_command(op: str, d: int, fmt: str = "text") -> str:
    """Render the full pair table for one operation as text, json, or csv."""
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown format {_echo(fmt)}")
    rows = table_rows(op, d)
    header = ("a", "b", op)
    if fmt == "json":
        # each distinct string quoted once
        quoted = Cells(json.dumps)
        records = zip(*(map(quoted.__getitem__, col) for col in zip(*rows)))
        return _json_doc({"op": json.dumps(op), "dim": d}, "entries", ("a", "b", "result"), records)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    widths = [max(len(header[i]), max(len(row[i]) for row in rows)) for i in range(3)]
    lines = ["  ".join(header[i].ljust(widths[i]) for i in range(3))]
    lines.append("  ".join("-" * w for w in widths))
    line = f"{{:<{widths[0]}}}  {{:<{widths[1]}}}  {{}}"
    lines.extend(line.format(*row).rstrip() for row in rows)
    return "\n".join(lines) + "\n"
