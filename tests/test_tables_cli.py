"""Table generation, the verification suite, and the CLI surface."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import excalc.multivector as core
from excalc import cli, tables, verify
from excalc.errors import DimensionError
from excalc.expr import Environment, evaluate_text
from excalc.qubits import QubitState
from excalc.tables import TABLE_OPS, table_command, table_rows
from excalc.verify import format_report, run_verification

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


def run_cli(*args, stdin_text=None, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "excalc.cli", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        env=env,
    )


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


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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


@pytest.mark.parametrize("op", TABLE_OPS)
def test_table_json_is_the_indented_dump_of_its_rows(op):
    rows = table_rows(op, 2)
    entries = [{"a": a, "b": b, "result": r} for a, b, r in rows]
    want = json.dumps({"op": op, "dim": 2, "entries": entries}, indent=2)
    assert table_command(op, 2, "json") == want


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


def test_verification_catches_a_flipped_star_sign(monkeypatch):
    true_hodge_blade = core.hodge_blade

    def flipped(d, mask):
        sign, comp = true_hodge_blade(d, mask)
        return -sign, comp

    monkeypatch.setattr(core, "hodge_blade", flipped)
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


def _break_one_cell(monkeypatch, op_name: str, pair: tuple[str, str], change):
    """Patch one table op of `excalc.tables` so that `change` rewrites its
    result on one labelled pair."""
    true_op = getattr(tables, op_name)

    def patched(a, b):
        result = true_op(a, b)
        return change(result) if (a.to_text(), b.to_text()) == pair else result

    monkeypatch.setattr(tables, op_name, patched)


def test_verification_catches_one_wrong_pseudo_cell(monkeypatch):
    _break_one_cell(monkeypatch, "pseudo_vee", ("{1,2}", "{1}"), lambda result: None)
    failed = [r for r in run_verification(trials=5) if not r.passed]
    assert [r.name for r in failed] == ["partial-set-gate-table-d2"]
    assert failed[0].detail == (
        "pseudo-vee {1,2},{1}: got ('{1,2}', '{1}', ''), want ('{1,2}', '{1}', '{1}')"
    )


def test_verification_catches_one_wrong_qubit_cell(monkeypatch):
    def negated(state):
        return QubitState(state.d, {m: -c for m, c in state})

    _break_one_cell(monkeypatch, "q_wedge", ("|01>", "|10>"), negated)
    failed = [r for r in run_verification(trials=5) if not r.passed]
    assert [r.name for r in failed] == ["qubit-gate-table-d2"]
    assert failed[0].detail == (
        "q-wedge |01>,|10>: got ('|01>', '|10>', '|11>'), want ('|01>', '|10>', '-|11>')"
    )


def test_verification_catches_one_wrong_star_sign(monkeypatch):
    true_hodge_blade = core.hodge_blade

    def flipped(d, mask):
        sign, comp = true_hodge_blade(d, mask)
        return (-sign if (d, mask) == (3, 0b101) else sign), comp

    monkeypatch.setattr(core, "hodge_blade", flipped)
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


def test_cli_eval_text_and_json():
    done = run_cli("eval", "--dim", "2", "e1 ^ e2")
    assert done.returncode == 0 and done.stdout.strip() == "E"
    done = run_cli("eval", "--dim", "2", "--format", "json", "*(e2)")
    payload = json.loads(done.stdout)
    assert payload == {"dim": 2, "terms": [{"blade": [1], "re": -1.0, "im": 0.0}]}
    done = run_cli("eval", "--dim", "3", "--format", "csv", "2 * e1 + i * E")
    assert done.stdout.splitlines()[0] == "blade,re,im"


def test_cli_eval_scalar_result():
    done = run_cli("eval", "--dim", "3", "ip(e1, e1)")
    assert done.returncode == 0 and done.stdout.strip() == "1"
    done = run_cli("eval", "--dim", "3", "--format", "json", "ip(e1, e2)")
    assert json.loads(done.stdout) == {"re": 0.0, "im": 0.0}


def test_cli_exit_codes():
    assert run_cli("eval", "--dim", "2", "e1 ^ e2").returncode == 0
    bad_syntax = run_cli("eval", "--dim", "2", "e1 ^")
    assert bad_syntax.returncode == 2 and "syntax error" in bad_syntax.stderr
    bad_eval = run_cli("eval", "--dim", "2", "ip(e1, E)")
    assert bad_eval.returncode == 1
    bad_name = run_cli("eval", "--dim", "2", "nope")
    assert bad_name.returncode == 1


def test_cli_overflowing_product_is_an_evaluation_error():
    done = run_cli("eval", "--dim", "3", "1e200*e1 ^ 1e200*e2")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: non-finite coefficient (inf+0j) on blade mask 0x3\n"
    # finite parts whose magnitude overflows
    done = run_cli("eval", "--dim", "1", "1.5e308 + 1.5e308i")
    assert done.returncode == 1 and done.stderr == (
        "error: coefficient (1.5e+308+1.5e+308j) on blade mask 0x0 has no finite magnitude\n"
    )


def test_cli_table_and_tolerance_override():
    done = run_cli("table", "--op", "pseudo-vee", "--dim", "2", "--format", "csv")
    assert done.returncode == 0
    rows = list(csv.reader(io.StringIO(done.stdout)))
    assert rows[0] == ["a", "b", "pseudo-vee"]
    # the set gates match a +1 coefficient within PRUNE_TOL and nothing
    # overrides it: a loose tolerance would accept -E as a defined gate
    plain = run_cli("table", "--op", "pseudo-wedge", "--dim", "2")
    assert plain.returncode == 0
    assert ["{2}", "{1}"] in [line.split() for line in plain.stdout.splitlines()]
    for value in ("2.5", "x"):
        done = run_cli(
            "table", "--op", "pseudo-wedge", "--dim", "2", env_extra={"EXCALC_TOL": value}
        )
        assert done.returncode == 0 and done.stdout == plain.stdout


def test_cli_eval_factor_bindings(tmp_path):
    payload = {
        "dim": 3,
        "factors": [
            [{"re": 1, "im": 0}, {"re": 1, "im": 0}, {"re": 0, "im": 0}],
            [{"re": 0, "im": 0}, {"re": 1, "im": 0}, {"re": 1, "im": 0}],
        ],
    }
    where = tmp_path / "x.json"
    where.write_text(json.dumps(payload))
    done = run_cli("eval", "--dim", "3", "--factors", f"x={where}", "x v (e1^e2)")
    assert done.returncode == 0 and done.stdout.strip() == "-e1 - e2"
    inline = run_cli("eval", "--dim", "3", "--factors", "x=" + json.dumps(payload), "x ^ e1")
    assert inline.returncode == 0 and inline.stdout.strip() == "E"
    missing = run_cli("eval", "--dim", "3", "--factors", "x=/does/not/exist.json", "x")
    assert missing.returncode == 1


def test_cli_eval_malformed_factor_list_is_an_error_not_a_traceback():
    for payload in ('{"x":1}', '{"dim":3,"factors":[[1,2,3]]}'):
        done = run_cli("eval", "--dim", "3", "--factors", "x=" + payload, "x")
        assert done.returncode == 1
        assert done.stderr.startswith("error: a factor list is")
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_cli_eval_reports_a_too_deeply_nested_factor_list(inline, tmp_path, capsys):
    payload = '{"dim": ' + "[" * 3000 + "]" * 3000 + "}"
    where = payload
    if not inline:
        where = tmp_path / "nested.json"
        where.write_text(payload)
    assert cli.main(["eval", "--dim", "2", "--factors", f"F={where}", "F"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: cannot read factor list ")
    assert "maximum recursion depth exceeded" in err


def test_cli_fock_matrix():
    done = run_cli("fock", "--matrix", "create:1", "--dim", "1")
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["0 0", "1 0"]
    payload = json.loads(
        run_cli("fock", "--matrix", "annihilate:2", "--dim", "2", "--format", "json").stdout
    )
    assert payload["dim"] == 2 and len(payload["matrix"]) == 4
    bad = run_cli("fock", "--matrix", "smash:1", "--dim", "2")
    assert bad.returncode == 1


@pytest.mark.parametrize("matrix", ["create:\u00b2", "annihilate:\u2460", "create:", "create:-1"])
def test_cli_fock_rejects_a_malformed_index(matrix):
    done = run_cli("fock", "--matrix", matrix, "--dim", "3")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == (
        f"error: --matrix wants create:<i> or annihilate:<i>, got {matrix!r}\n"
    )


@pytest.mark.parametrize(
    "argv, stdin_text, code, out, err",
    [
        (["eval", "--dim", "3", "1\u0663 * e1"], "", 2, "",
         "syntax error: unknown character '\u0663' at 1:2"),
        (["eval", "--dim", "3", "1e\u0663 * e1"], "", 2, "",
         "syntax error: unknown character '\u0663' at 1:3"),
        (["eval", "--dim", "3", "2.\u0665 * e2"], "", 2, "",
         "syntax error: unknown character '.' at 1:2"),
        (["fock", "--matrix", "create:\u0661", "--dim", "3"], "", 1, "",
         "error: --matrix wants create:<i> or annihilate:<i>, got 'create:\u0661'"),
        # the REPL reports the line and reads on, still in dimension 2
        (["repl", "--dim", "2"], ":dim \u0663\n*(e1)\n", 0, "e2\n",
         "error: :dim wants one integer dimension"),
        # int() reads these; --dim is a usage error instead
        (["eval", "--dim", "\u0663", "e1^e2"], "", 2, "",
         "excalc eval: error: argument --dim: invalid decimal value: '\u0663'"),
        (["eval", "--dim", "1_0", "e10"], "", 2, "",
         "excalc eval: error: argument --dim: invalid decimal value: '1_0'"),
        (["fock", "--matrix", "create:1", "--dim", "\u0662"], "", 2, "",
         "excalc fock: error: argument --dim: invalid decimal value: '\u0662'"),
    ],
    ids=[
        "eval-integer", "eval-exponent", "eval-fraction", "fock", "repl-dim",
        "eval-dim", "eval-dim-underscore", "fock-dim",
    ],
)
def test_cli_reads_ascii_digits_only(argv, stdin_text, code, out, err, monkeypatch, capsys):
    # Arabic-Indic digits are decimal to str.isdecimal and to the regex \d
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    try:
        got = cli.main(argv)
    except SystemExit as stop:  # an argparse usage error
        got = stop.code
    assert got == code
    captured = capsys.readouterr()
    assert captured.out == out
    # a usage error prints the usage before its one error line
    *usage, last = captured.err.split("\n")[:-1]
    assert captured.err.endswith("\n") and last == err
    assert all(line.startswith(("usage: excalc ", " ")) for line in usage)


def test_cli_verify_passes():
    done = run_cli("verify-paper")
    assert done.returncode == 0
    assert "12/12 checks passed" in done.stdout


def test_cli_repl_session():
    script = "\n".join(
        [
            ":let x = e1 + e2",
            "x ^ e2",
            ":dim 3",
            "*(e2)",
            "e9",
            ":bogus",
            ":quit",
        ]
    )
    done = run_cli("repl", "--dim", "2", stdin_text=script + "\n")
    assert done.returncode == 0
    out_lines = done.stdout.splitlines()
    assert "x = e1 + e2" in out_lines
    assert "E" in out_lines
    assert "dimension 3" in out_lines
    assert "-e1^e3" in out_lines
    assert "error:" in done.stderr  # e9 out of range and :bogus both complain


def test_cli_repl_reports_a_syntax_error_as_eval_does():
    done = run_cli("repl", "--dim", "3", stdin_text="e1 +\ne1\n")
    assert done.returncode == 0
    assert done.stdout == "e1\n"
    assert done.stderr.startswith("syntax error: unexpected end of input at 1:5 ")
    one_shot = run_cli("eval", "--dim", "3", "e1 +")
    assert one_shot.returncode == 2
    assert done.stderr == one_shot.stderr


def test_cli_repl_dim_takes_exactly_one_integer():
    script = ":dim\n:dim 3 4\n:dim x\n:dim -1\n*(e1)\n:dim 99\n:dim 3\n*(e1)\n"
    done = run_cli("repl", "--dim", "2", stdin_text=script)
    assert done.returncode == 0
    # the bad lines leave the dimension at 2, where *(e1) is e2
    assert done.stdout.splitlines() == ["e2", "dimension 3", "e2^e3"]
    assert done.stderr.splitlines() == ["error: :dim wants one integer dimension"] * 4 + [
        "error: dimension must be an integer in 1..16, got 99"
    ]


def test_cli_repl_matches_whole_command_words_and_rejects_reserved_names():
    script = ":letter = e1\n:dimension 3\n:let E = e1\nE\nter\n:quit now\ne1\n"
    done = run_cli("repl", "--dim", "2", stdin_text=script)
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["E"]
    assert done.stderr.splitlines() == [
        "error: unknown command ':letter'",
        "error: unknown command ':dimension'",
        "error: cannot bind 'E': an expression does not read it as a name",
        "error: unbound name 'ter'",
    ]


def test_cli_factors_reject_a_reserved_name_and_a_bool_dimension():
    factors = '{"dim": 1, "factors": [[{"re": 1, "im": 0}]]}'
    done = run_cli("eval", "--dim", "1", "--factors", f"E={factors}", "E")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: cannot bind 'E': an expression does not read it as a name\n"
    factors = '{"dim": true, "factors": [[{"re": 1, "im": 0}]]}'
    done = run_cli("eval", "--dim", "1", "--factors", f"F={factors}", "--format", "json", "F")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: dimension must be an integer in 1..16, got True\n"


def test_cli_fock_text_prints_plain_numbers_from_plain_complex_rows(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "operator_matrix", lambda d, kind, i: [[0.5 + 0j, 1e20 + 0j], [1.5j, 0j]]
    )
    assert cli.main(["fock", "--matrix", "create:1", "--dim", "1"]) == 0
    assert capsys.readouterr().out == "0.5 1e+20\n1.5i 0\n"
