"""Parse what excalc prints or returns and compare it with expected values.

Pure Python, no excalc import: the measured process loads this to check each
call's output outside the timed region.  Expected multivectors arrive as
[[mask, re, im], ...] lists computed by the numpy reference.
"""

from __future__ import annotations

import csv
import io
import json
import re

REL_TOL = 1e-9

_SPLIT = re.compile(r" ([+-]) ")


def _number(text: str) -> complex:
    if text.endswith("i"):
        return 1j if text == "i" else complex(0.0, float(text[:-1]))
    return complex(float(text))


def blade_mask(d: int, text: str) -> int:
    """'1', 'E' or 'e1^e3' to a bitmask."""
    if text == "1":
        return 0
    if text == "E":
        return (1 << d) - 1
    mask = 0
    for part in text.split("^"):
        if not part.startswith("e"):
            raise ValueError(f"not a blade: {text!r}")
        mask |= 1 << (int(part[1:]) - 1)
    return mask


def blade_text(d: int, mask: int) -> str:
    if mask == 0:
        return "1"
    if mask == (1 << d) - 1:
        return "E"
    return "^".join(f"e{i + 1}" for i in range(d) if mask >> i & 1)


def parse_text(d: int, text: str) -> dict[int, complex]:
    """Canonical text form ('2.5 * e1 - i * E', '0', ...) to {mask: coefficient}."""
    text = text.strip()
    out: dict[int, complex] = {}
    if text == "0":
        return out
    parts = _SPLIT.split(text)
    signs = ["+"] + parts[1::2]
    for sign, piece in zip(signs, parts[0::2]):
        if piece.startswith("-"):
            sign, piece = ("+" if sign == "-" else "-"), piece[1:]
        if " * " in piece:
            coeff_text, blade = piece.split(" * ")
            coeff = _number(coeff_text)
        elif piece[0] in "eE":
            coeff, blade = 1.0, piece
        else:
            coeff, blade = _number(piece), "1"
        mask = blade_mask(d, blade)
        out[mask] = out.get(mask, 0j) + (-coeff if sign == "-" else coeff)
    return out


def parse_json(d: int, text: str) -> dict[int, complex]:
    data = json.loads(text)
    if data["dim"] != d:
        raise ValueError(f"dimension {data['dim']} != {d}")
    out: dict[int, complex] = {}
    for term in data["terms"]:
        mask = sum(1 << (i - 1) for i in term["blade"])
        out[mask] = out.get(mask, 0j) + complex(term["re"], term["im"])
    return out


def parse_csv(d: int, text: str) -> dict[int, complex]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["blade", "re", "im"]:
        raise ValueError(f"unexpected csv header {rows[0]!r}")
    out: dict[int, complex] = {}
    for blade, re_text, im_text in rows[1:]:
        mask = blade_mask(d, blade)
        out[mask] = out.get(mask, 0j) + complex(float(re_text), float(im_text))
    return out


PARSERS = {"text": parse_text, "json": parse_json, "csv": parse_csv}


def same_terms(got: dict[int, complex], expected: list) -> bool:
    """Coefficient-wise agreement within REL_TOL of the largest expected entry."""
    want = {int(m): complex(re_, im_) for m, re_, im_ in expected}
    scale = max((abs(c) for c in want.values()), default=0.0)
    tol = REL_TOL * max(1.0, scale)
    for mask in set(got) | set(want):
        if abs(got.get(mask, 0j) - want.get(mask, 0j)) > tol:
            return False
    return True


def same_number(got: complex, expected: list) -> bool:
    want = complex(*expected)
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


# ---- tables -----------------------------------------------------------------


def table_triples(fmt: str, text: str) -> list[tuple[str, str, str]]:
    """(a, b, result) rows of a `table` command in any of its formats."""
    if fmt == "json":
        return [(e["a"], e["b"], e["result"]) for e in json.loads(text)["entries"]]
    if fmt == "csv":
        return [tuple(row) for row in list(csv.reader(io.StringIO(text)))[1:]]
    rows = []
    for line in text.splitlines()[2:]:
        fields = line.split()
        rows.append((fields[0], fields[1], fields[2] if len(fields) > 2 else ""))
    return rows


def same_table(fmt: str, text: str, expected: list[list[str]]) -> bool:
    """Expected rows are [a, b, cell] in the reference's own rendering."""
    return [list(row) for row in table_triples(fmt, text)] == expected


# ---- ladder matrices ------------------------------------------------------------


def ladder_entries(fmt: str, text: str) -> list[list[int]]:
    """Nonzero [row, col, value] entries of a `fock` matrix dump."""
    if fmt == "json":
        matrix = [[complex(*c) for c in row] for row in json.loads(text)["matrix"]]
    else:
        matrix = [[_number(x) for x in line.split()] for line in text.splitlines()]
    out = []
    for r, row in enumerate(matrix):
        for c, value in enumerate(row):
            if value:
                if value.imag or value.real != int(value.real):
                    raise ValueError(f"non-integer ladder entry {value!r}")
                out.append([r, c, int(value.real)])
    return out


# ---- whole CLI calls ------------------------------------------------------------

TRACEBACK = "Traceback (most recent call last)"


def check_cli(expect: dict, code: int, out: str, err: str, tables: dict) -> str | None:
    """None when the call is correct, else why not.

    A hostile input passes with a correct result or a clean exit 1 or 2.
    """
    if TRACEBACK in err:
        return "traceback"
    if expect.get("hostile"):
        if code in (1, 2) or (code == 0 and same_terms(parse_text(expect["d"], out), expect["terms"])):
            return None
        return f"exit {code} with a wrong result"
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    if "terms" in expect:
        ok = same_terms(PARSERS[expect["fmt"]](expect["d"], out), expect["terms"])
    elif "table" in expect:
        ok = same_table(expect["fmt"], out, tables[expect["table"]])
    elif "ladder" in expect:
        ok = ladder_entries(expect["fmt"], out) == expect["ladder"]
    elif "verify" in expect:
        n = expect["verify"]
        ok = out.rstrip().endswith(f"{n}/{n} checks passed")
    else:
        ok = True
    return None if ok else "output differs from the reference"
