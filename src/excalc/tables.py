"""Gate tables: every basis pair under one binary operation.

Rows list all ordered pairs of basis elements (blades, subsets, or qubit
basis states) in (step, index) order with the operation result in the last
column, the same tall layout the reference tables use.  Partial set
operations leave an empty cell where they are undefined.
"""

from __future__ import annotations

import csv
import io
import json

from .boolean_gates import all_subsets, pseudo_vee, pseudo_wedge
from .errors import DimensionError
from .multivector import Multivector, all_blades, check_dim, vee, wedge
from .qubits import QubitState, q_vee, q_wedge

TABLE_MAX_DIM = 6

TABLE_OPS = ("wedge", "vee", "pseudo-wedge", "pseudo-vee", "q-wedge", "q-vee")
TABLE_FORMATS = ("text", "json", "csv")


def _blades(d: int) -> list[Multivector]:
    return [Multivector(d, {m: 1.0}) for m in all_blades(d)]


def _kets(d: int) -> list[QubitState]:
    return [QubitState(d, {m: 1.0}) for m in all_blades(d)]


def table_rows(op: str, d: int) -> list[tuple[str, str, str]]:
    check_dim(d)
    if d > TABLE_MAX_DIM:
        raise DimensionError(f"full tables limited to d <= {TABLE_MAX_DIM}")
    tables = {  # op -> (basis operands in (step, index) order, binary op)
        "wedge": (_blades, wedge),
        "vee": (_blades, vee),
        "pseudo-wedge": (all_subsets, pseudo_wedge),
        "pseudo-vee": (all_subsets, pseudo_vee),
        "q-wedge": (_kets, q_wedge),
        "q-vee": (_kets, q_vee),
    }
    if op not in tables:
        raise ValueError(f"unknown table op {op!r}")
    basis, fn = tables[op]
    labelled = [(x, x.to_text()) for x in basis(d)]
    # result -> its text; equal results render alike, so each renders once
    cells = {None: ""}
    rows = []
    for a, label_a in labelled:
        for b, label_b in labelled:
            result = fn(a, b)
            text = cells.get(result)
            if text is None:
                text = cells[result] = result.to_text()
            rows.append((label_a, label_b, text))
    return rows


def table_command(op: str, d: int, fmt: str = "text") -> str:
    """Render the full pair table for one operation as text, json, or csv."""
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    rows = table_rows(op, d)
    header = ("a", "b", op)
    if fmt == "json":
        # the layout of json.dumps(..., indent=2), each distinct string quoted once
        quoted = {s: json.dumps(s) for s in set().union(*rows)}
        entries = ",\n".join(
            '    {\n      "a": %s,\n      "b": %s,\n      "result": %s\n    }'
            % tuple(map(quoted.__getitem__, row))
            for row in rows
        )
        return '{\n  "op": %s,\n  "dim": %d,\n  "entries": [\n%s\n  ]\n}' % (
            json.dumps(op),
            d,
            entries,
        )
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
