"""Table generation, the verification suite, and the CLI surface."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import excalc.multivector as core
from excalc import cli, fock, tables, verify
from excalc.boolean_gates import all_subsets, pseudo_vee, pseudo_wedge
from excalc.errors import DimensionError
from excalc.expr import Environment, evaluate_text
from excalc.qubits import QubitState, q_vee, q_wedge
from excalc.tables import TABLE_OPS, table_command, table_rows
from excalc.verify import format_report, run_verification
from cli_cases import CASES, X_FACTORS, Case, check, digest, run_in_process

WEDGE_COLUMN_D2 = {
    ("1", "1"): "1",
    ("1", "e1"): "e1",
    ("1", "e2"): "e2",
    ("1", "E"): "E",
    ("e1", "1"): "e1",
    ("e1", "e1"): "0",
    ("e1", "e2"): "E",
    ("e1", "E"): "0",
    ("e2", "1"): "e2",
    ("e2", "e1"): "-E",
    ("e2", "e2"): "0",
    ("e2", "E"): "0",
    ("E", "1"): "E",
    ("E", "e1"): "0",
    ("E", "e2"): "0",
    ("E", "E"): "0",
}
VEE_COLUMN_D2 = {
    ("1", "1"): "0",
    ("1", "e1"): "0",
    ("1", "e2"): "0",
    ("1", "E"): "1",
    ("e1", "1"): "0",
    ("e1", "e1"): "0",
    ("e1", "e2"): "1",
    ("e1", "E"): "e1",
    ("e2", "1"): "0",
    ("e2", "e1"): "-1",
    ("e2", "e2"): "0",
    ("e2", "E"): "e2",
    ("E", "1"): "1",
    ("E", "e1"): "e1",
    ("E", "e2"): "e2",
    ("E", "E"): "E",
}


# ---- table generation ------------------------------------------------------------


def test_wedge_table_d2_matches_reference():
    got = {(a, b): r for a, b, r in table_rows("wedge", 2)}
    assert got == WEDGE_COLUMN_D2


def test_vee_table_d2_matches_reference():
    got = {(a, b): r for a, b, r in table_rows("vee", 2)}
    assert got == VEE_COLUMN_D2


def test_pseudo_tables_blank_off_domain():
    rows = {(a, b): r for a, b, r in table_rows("pseudo-wedge", 2)}
    assert rows[("{1}", "{2}")] == "{1,2}"
    assert rows[("{2}", "{1}")] == ""
    assert rows[("{}", "{}")] == "{}"
    rows = {(a, b): r for a, b, r in table_rows("pseudo-vee", 2)}
    assert rows[("{1,2}", "{1}")] == "{1}"
    assert rows[("{1}", "{1}")] == ""
    blanks = sum(1 for r in rows.values() if r == "")
    assert blanks == 8


def test_qubit_table_zero_cells():
    rows = {(a, b): r for a, b, r in table_rows("q-wedge", 2)}
    assert rows[("|01>", "|10>")] == "-|11>"
    assert rows[("|10>", "|10>")] == "0"


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("op", ["wedge", "vee"])
def test_every_table_cell_reparses_to_the_product(op, d):
    env = Environment(d)
    fn = {"wedge": core.wedge, "vee": core.vee}[op]
    for a, b, cell in table_rows(op, d):
        want = fn(evaluate_text(a, env), evaluate_text(b, env))
        assert evaluate_text(cell, env) == want, (a, b, cell)


TABLE_DIGESTS_D3 = {
    "wedge": "952cea94e24358b5",
    "vee": "04355557e8024f68",
    "pseudo-wedge": "cc0b54b17e80954f",
    "pseudo-vee": "e9e42465a092e29f",
    "q-wedge": "9ed6b6c81da696e7",
    "q-vee": "23e650504fed2f58",
}


@pytest.mark.parametrize("op", sorted(TABLE_DIGESTS_D3))
def test_table_output_is_pinned(op):
    """Every format of every d=3 table is byte-for-byte the reference output."""
    blob = "".join(table_command(op, 3, fmt) for fmt in ("text", "json", "csv"))
    assert digest(blob) == TABLE_DIGESTS_D3[op]


# Taken when every table and matrix cell was still rendered on its own:
# rendering each distinct cell once must not move a byte.
TABLE_DIGESTS_D6 = {
    "wedge": "e212851ff7e0d3c3",
    "vee": "b932784e5bbaab15",
    "pseudo-wedge": "556085c1c1647000",
    "pseudo-vee": "3e531e9e1425d833",
    "q-wedge": "40e0d1c674612b12",
    "q-vee": "994923005656aac9",
}
FOCK_DIGESTS_D8 = {
    ("create:3", "text"): "db72bc23bee13c45",
    ("create:3", "json"): "d7d170905a3baef2",
    ("annihilate:5", "text"): "9e013bcab1ddd28d",
    ("annihilate:5", "json"): "1711ee5072af7971",
}


# every fock dump: d = 1..8, both kinds, every index, text and JSON
FOCK_DIGEST_ALL = "03a9a457134540f6"


@pytest.mark.parametrize("op", sorted(TABLE_DIGESTS_D6))
def test_d6_table_output_is_pinned(op):
    blob = "".join(table_command(op, 6, fmt) for fmt in ("text", "json", "csv"))
    assert digest(blob) == TABLE_DIGESTS_D6[op]


@pytest.mark.parametrize("matrix, fmt", sorted(FOCK_DIGESTS_D8))
def test_d8_fock_output_is_pinned(matrix, fmt, capsys):
    assert cli.main(["fock", "--matrix", matrix, "--dim", "8", "--format", fmt]) == 0
    assert digest(capsys.readouterr().out) == FOCK_DIGESTS_D8[matrix, fmt]


def test_every_fock_dump_is_pinned(capsys):
    for d in range(1, 9):
        for kind in ("create", "annihilate"):
            for i in range(1, d + 1):
                for fmt in ("text", "json"):
                    argv = ["fock", "--matrix", f"{kind}:{i}", "--dim", str(d), "--format", fmt]
                    assert cli.main(argv) == 0
    assert digest(capsys.readouterr().out) == FOCK_DIGEST_ALL


# d=2 keeps the ids this test had when it checked d=2 only
@pytest.mark.parametrize(
    "op, d",
    [pytest.param(op, d, id=op if d == 2 else f"{op}-d{d}") for d in (1, 2, 3, 4) for op in TABLE_OPS],
)
def test_table_json_is_the_indented_dump_of_its_rows(op, d):
    rows = table_rows(op, d)
    entries = [{"a": a, "b": b, "result": r} for a, b, r in rows]
    want = json.dumps({"op": op, "dim": d, "entries": entries}, indent=2)
    assert table_command(op, d, "json") == want


def per_pair_rows(op: str, d: int) -> list[tuple[str, str, str]]:
    """The oracle: one product call per pair, each result rendered on its own."""
    blades = lambda d: [core.Multivector(d, {m: 1.0}) for m in core.all_blades(d)]
    kets = lambda d: [QubitState(d, {m: 1.0}) for m in core.all_blades(d)]
    basis, fn = {
        "wedge": (blades, core.wedge),
        "vee": (blades, core.vee),
        "pseudo-wedge": (all_subsets, pseudo_wedge),
        "pseudo-vee": (all_subsets, pseudo_vee),
        "q-wedge": (kets, q_wedge),
        "q-vee": (kets, q_vee),
    }[op]
    labelled = [(x, x.to_text()) for x in basis(d)]
    show = lambda r: "" if r is None else r.to_text()
    return [(la, lb, show(fn(a, b))) for a, la in labelled for b, lb in labelled]


@pytest.mark.parametrize("op", TABLE_OPS)
def test_table_rows_equal_the_per_pair_products(op):
    for d in range(1, tables.TABLE_MAX_DIM + 1):
        assert table_rows(op, d) == per_pair_rows(op, d), d


# the product each table calls, by its name in `excalc.tables`
TABLE_PRODUCTS = {
    "wedge": "wedge",
    "vee": "vee",
    "pseudo-wedge": "wedge",
    "pseudo-vee": "vee",
    "q-wedge": "q_wedge",
    "q-vee": "q_vee",
}


@pytest.mark.parametrize("op", TABLE_OPS)
def test_a_table_makes_one_product_call_per_row(monkeypatch, op):
    calls = []
    product = getattr(tables, TABLE_PRODUCTS[op])

    def counted(a, b):
        calls.append(a)
        return product(a, b)

    monkeypatch.setattr(tables, TABLE_PRODUCTS[op], counted)
    for d in range(1, tables.TABLE_MAX_DIM + 1):
        calls.clear()
        table_rows(op, d)
        assert len(calls) == 1 << d


def test_table_rows_render_each_distinct_result_once(monkeypatch):
    calls = []
    to_text = core.Multivector.to_text

    def counted(self):
        calls.append(self)
        return to_text(self)

    monkeypatch.setattr(core.Multivector, "to_text", counted)
    rows = table_rows("wedge", 3)
    # the 8 basis labels, then one call per distinct product
    assert len(calls) == 8 + len({r for _, _, r in rows})


# parts with signed zeros, so that equal values can differ in their bits
parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-13]), st.floats(-2, 2))


@given(st.integers(1, 6), st.data())
def test_equal_results_hash_alike_and_render_alike(d, data):
    terms = data.draw(
        st.dictionaries(st.integers(0, (1 << d) - 1), st.builds(complex, parts, parts), max_size=6)
    )
    flip = lambda x: -x if x == 0 else x  # 0.0 <-> -0.0
    twin = {m: complex(flip(c.real), flip(c.imag)) for m, c in terms.items()}
    for cls in (core.Multivector, QubitState):
        a, b = cls(d, terms), cls(d, twin)
        assert a == b and hash(a) == hash(b)
        assert a.to_text() == b.to_text()


def test_table_formats():
    text = table_command("wedge", 2, "text")
    assert "e2  e1  -E" in text
    data = json.loads(table_command("wedge", 2, "json"))
    assert data["dim"] == 2 and len(data["entries"]) == 16
    rows = list(csv.reader(io.StringIO(table_command("wedge", 2, "csv"))))
    assert rows[0] == ["a", "b", "wedge"]
    assert len(rows) == 17


def test_table_guards():
    with pytest.raises(DimensionError):
        table_command("wedge", 7)
    with pytest.raises(ValueError):
        table_command("meet", 2)


def test_unknown_table_format_is_rejected_before_the_table_is_built(monkeypatch):
    def not_called(op, d):
        raise AssertionError("table_rows called for an unknown format")

    monkeypatch.setattr(tables, "table_rows", not_called)
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        table_command("wedge", 6, "xml")


# ---- verification suite ----------------------------------------------------------


def test_verification_passes():
    results = run_verification(trials=40)
    assert all(r.passed for r in results)
    report = format_report(results)
    assert report.count("PASS") == len(results)
    assert sum(r.kind == "table" for r in results) == 4
    assert sum(r.kind == "example" for r in results) >= 6


PASSING_REPORT = """\
reference tables:
  PASS  identity-relations  (150 randomized trials)
  PASS  meet-join-table-d2  (32 entries)
  PASS  partial-set-gate-table-d2  (2x8 domain pairs)
  PASS  qubit-gate-table-d2  (32 entries)
worked examples:
  PASS  superposition-meet-d3  (25 random coefficient draws)
  PASS  superposition-join-d3  (25 random coefficient draws, 3 routes)
  PASS  join-examples-d4  (3 evaluations)
  PASS  complement-table-d2  (4 entries)
  PASS  complement-table-d3  (8 entries)
  PASS  ladder-vacuum-maps  (strings and anticommutators at d=4)
  PASS  vector-orthonormality  (all pairs d<=4, 20 random vector pairs)
  PASS  one-hole-fill  (all pairs d<=5)
12/12 checks passed
"""


def test_passing_report_text_is_pinned():
    assert format_report(run_verification()) == PASSING_REPORT


@pytest.fixture
def fresh_basis_caches():
    """Empty the cached basis and one-hole states before and after a test that
    patches `star_sign`, so the states it builds stay inside that test."""
    core.covector.cache_clear()
    core.basis_vector.cache_clear()
    yield
    core.covector.cache_clear()
    core.basis_vector.cache_clear()


@pytest.mark.usefixtures("fresh_basis_caches")
def test_verification_catches_a_flipped_star_sign(monkeypatch):
    true_star_sign = core.star_sign
    monkeypatch.setattr(core, "star_sign", lambda mask: -true_star_sign(mask))
    failed = {r.name for r in run_verification(trials=5) if not r.passed}
    # the star's sign shows in the complement tables, the one-hole fill and
    # the star-duality relations
    assert {"complement-table-d2", "complement-table-d3", "one-hole-fill", "identity-relations"} <= failed


def test_verification_catches_a_flipped_vee(monkeypatch):
    true_vee = core._vee_dict
    monkeypatch.setattr(core, "_vee_dict", lambda a, b: -true_vee(a, b))
    failed = {r.name for r in run_verification(trials=5) if not r.passed}
    # the join columns of both gate tables go wrong
    assert {"meet-join-table-d2", "qubit-gate-table-d2"} <= failed


@pytest.mark.parametrize(
    "patches, detail",
    [
        (
            {"apply_annihilation": lambda i, a: -fock.apply_annihilation(i, a)},
            "mixed anticommutator (1,1); mixed anticommutator (2,2); "
            "mixed anticommutator (3,3); mixed anticommutator (4,4)",
        ),
        (
            {"multi_create": lambda ix, a: a, "multi_annihilate": lambda ix, a: a},
            "annihilation string on the top blade; creation string for [1]",
        ),
        (
            {"apply_creation": lambda i, a: a},
            "mixed anticommutator (1,1); like anticommutator (1,1); "
            "mixed anticommutator (1,2); like anticommutator (1,2)",
        ),
    ],
    ids=["negated-annihilation", "identity-strings", "identity-creation"],
)
def test_ladder_check_names_the_failing_relations(monkeypatch, patches, detail):
    for name, op in patches.items():
        monkeypatch.setattr(verify, name, op)
    result = verify.check_ladder_maps()
    assert not result.passed
    assert result.detail == detail


def _break_one_row(monkeypatch, op_name: str, left: str, change):
    """Patch one product of `excalc.tables` so that `change` rewrites the
    product of one table row, the row whose basis element prints as `left`."""
    true_op = getattr(tables, op_name)

    def patched(a, b):
        result = true_op(a, b)
        return change(result) if a.to_text() == left else result

    monkeypatch.setattr(tables, op_name, patched)


def test_verification_catches_one_wrong_pseudo_cell(monkeypatch):
    # the set gates and the meet/join table share vee's rows: drop the {1}
    # term of the E row, the cell ({1,2}, {1})
    def dropped(product):
        return core.Multivector(product.d, {m: c for m, c in product if m != 0b01})

    _break_one_row(monkeypatch, "vee", "E", dropped)
    failed = [r for r in run_verification(trials=5) if not r.passed]
    assert [r.name for r in failed] == ["meet-join-table-d2", "partial-set-gate-table-d2"]
    assert failed[0].detail == "vee E,e1: got ('E', 'e1', '0'), want ('E', 'e1', 'e1')"
    assert failed[1].detail == (
        "pseudo-vee {1,2},{1}: got ('{1,2}', '{1}', ''), want ('{1,2}', '{1}', '{1}')"
    )


def test_verification_catches_one_wrong_qubit_cell(monkeypatch):
    def negated(state):
        return QubitState(state.d, {m: -c if m == 0b11 else c for m, c in state})

    _break_one_row(monkeypatch, "q_wedge", "|01>", negated)
    failed = [r for r in run_verification(trials=5) if not r.passed]
    assert [r.name for r in failed] == ["qubit-gate-table-d2"]
    assert failed[0].detail == (
        "q-wedge |01>,|10>: got ('|01>', '|10>', '|11>'), want ('|01>', '|10>', '-|11>')"
    )


def test_verification_catches_a_domain_rule_that_drops_the_sign(monkeypatch):
    # a one-term product maps to its subset whatever its sign
    true_m_inverse = tables.m_inverse

    def signless(product):
        return true_m_inverse(core.Multivector(product.d, {m: 1 for m, _ in product}))

    monkeypatch.setattr(tables, "m_inverse", signless)
    failed = [r for r in run_verification(trials=5) if not r.passed]
    assert [r.name for r in failed] == ["partial-set-gate-table-d2"]
    assert failed[0].detail == (
        "pseudo-wedge {2},{1}: got ('{2}', '{1}', '{1,2}'), want ('{2}', '{1}', ''); "
        "pseudo-vee {2},{1}: got ('{2}', '{1}', '{}'), want ('{2}', '{1}', '')"
    )


@pytest.mark.usefixtures("fresh_basis_caches")
def test_verification_catches_one_wrong_star_sign(monkeypatch):
    true_star_sign = core.star_sign

    def flipped(mask):
        return -true_star_sign(mask) if mask == 0b101 else true_star_sign(mask)

    monkeypatch.setattr(core, "star_sign", flipped)
    failed = {r.name: r.detail for r in run_verification(trials=5) if not r.passed}
    assert failed["complement-table-d3"] == "*(e1^e3) at d=3: got e2, want -e2"
    assert "complement-table-d2" not in failed


EXAMPLE_ROWS = (
    verify.COMPLEMENT_TABLE_D2
    + verify.COMPLEMENT_TABLE_D3
    + verify.JOIN_EXAMPLES_D4
    + verify.ONE_HOLE_FILL_ROWS
    + verify.BASIS_PRODUCT_ROWS
)


def test_worked_example_rows_are_what_eval_prints(capsys):
    assert len(EXAMPLE_ROWS) == 98
    for d, source, printed in EXAMPLE_ROWS:
        assert cli.main(["eval", "--dim", str(d), source]) == 0
        assert capsys.readouterr().out == printed + "\n", (d, source)


# ---- CLI ---------------------------------------------------------------------------


def test_cli_eval_factor_bindings(tmp_path):
    where = tmp_path / "x.json"
    where.write_text(X_FACTORS)
    argv = ["eval", "--dim", "3", "--factors", f"x={where}", "x v (e1^e2)"]
    case = Case("factors-file", argv, out="-e1 - e2\n")
    check(case, *run_in_process(case))


# Every pinned CLI behaviour is a case in `cli_cases.CASES`, run here once
# each, in process; CI runs the same cases as real processes.
@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_cli_case(case):
    check(case, *run_in_process(case))


CLOSED_READER_ARGVS = [
    ("eval", "--dim", "3", "e1"),
    ("table", "--op", "vee", "--dim", "6"),
    ("fock", "--matrix", "annihilate:3", "--dim", "8", "--format", "json"),
    ("verify-paper",),
    ("--help",),
    ("eval", "--help"),
]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", CLOSED_READER_ARGVS, ids=lambda argv: " ".join(argv) if "--help" in argv else argv[0]
)
def test_cli_output_to_a_closed_reader_exits_1_without_a_traceback(argv, buffered):
    import os

    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        done = subprocess.run(
            [sys.executable, "-m", "excalc.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    # unbuffered, argparse's help swallows the write's error and exits 0
    code = 0 if "--help" in argv and not buffered else 1
    assert (done.returncode, done.stderr) == (code, "")


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_cli_eval_reports_a_too_deeply_nested_factor_list(inline, tmp_path, capsys):
    payload = '{"dim": ' + "[" * 3000 + "]" * 3000 + "}"
    where = payload
    if not inline:
        where = tmp_path / "nested.json"
        where.write_text(payload)
    assert cli.main(["eval", "--dim", "2", "--factors", f"F={where}", "F"]) == 1
    out, err = capsys.readouterr()
    # one text on every Python, whether or not its JSON decoder reads 3000 deep
    assert out == ""
    assert err == f"error: cannot read factor list {str(where)!r:.80}: nesting deeper than 100\n"


# 100 levels are read and the value fails as a factor list; 101 are refused,
# as lists or as objects
@pytest.mark.parametrize(
    "payload, message",
    [
        ('{"dim": 2, "factors": ' + "[" * 99 + "]" * 99 + "}", "a factor list is "),
        ('{"dim": 2, "factors": ' + "[" * 100 + "]" * 100 + "}", "cannot read "),
        ('{"dim": 2, "factors": [' + '{"a": ' * 99 + "0" + "}" * 99 + "]}", "cannot read "),
    ],
    ids=["100-lists", "101-lists", "101-objects"],
)
def test_cli_eval_reads_a_factor_list_at_most_100_levels_deep(payload, message, capsys):
    assert cli.main(["eval", "--dim", "2", "--factors", f"F={payload}", "F"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {message}")
    assert err.endswith(": nesting deeper than 100\n") == message.startswith("cannot")


# The echo of an unreadable --factors value is cut at 80 characters, so the
# error stays one short line however long the value is.
@pytest.mark.parametrize(
    "payload", ['{"dim": ' + "[" * 3000 + "]" * 3000 + "}", '{"dim": 2, "factors": ' + "x" * 6000]
)
def test_cli_eval_factor_list_error_echoes_at_most_80_characters(payload, capsys):
    assert cli.main(["eval", "--dim", "2", "--factors", f"F={payload}", "F"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) <= 200
    assert err.startswith(f"error: cannot read factor list {payload!r:.80}: ")


def test_cli_fock_text_prints_plain_numbers_from_plain_complex_rows(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "operator_matrix", lambda d, kind, i: [[0.5 + 0j, 1e20 + 0j], [1.5j, 0j]]
    )
    assert cli.main(["fock", "--matrix", "create:1", "--dim", "1"]) == 0
    assert capsys.readouterr().out == "0.5 1e+20\n1.5i 0\n"
