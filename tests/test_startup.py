"""Start-up: each CLI subcommand loads only the modules it runs.

numpy, `verify`, `extensors`, `dense`, `tables`, `fock` and the set-gate and
qubit modules are imported by the code that uses them, so `eval` and `repl`
start without any of them, and `table` and `fock` without numpy.  No
subcommand loads `dataclasses`, and `eval`, `table`, `fock` and
`verify-paper` load no `typing`: the library's records are plain classes and
named tuples.  Nor do they load `shutil`: help wraps at a fixed 78 columns,
so argparse never measures the terminal.  `expand` and `is_decomposable`
load no numpy either on a list of at most 8 modes, nor `is_decomposable`
past that, whose join vectors hold exact zeros.  `import excalc.cli`
builds no blade byte tables; the first blade sorted or printed builds them.
The command functions reach `table_command` and `operator_matrix` through
the names in `excalc.cli`, so a caller can wrap or replace them there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import excalc
from excalc import cli
from cli_cases import vandermonde

SRC = str(Path(excalc.__file__).resolve().parents[1])
LAZY = (
    "numpy",
    "excalc.verify",
    "excalc.extensors",
    "excalc.dense",
    "dataclasses",
    "excalc.tables",
    "excalc.qubits",
    "excalc.boolean_gates",
    "excalc.fock",
)
TABLE = ["excalc.tables", "excalc.qubits", "excalc.boolean_gates"]

# Runs `cli.main(argv)` in a fresh interpreter, with its output captured, and
# prints as JSON which of LAZY were loaded after `import excalc.cli` and after
# `main` returned, and what `main` returned.
PROBE = """
import contextlib, io, json, sys
LAZY = {lazy!r}
loaded = lambda: [m for m in LAZY if m in sys.modules]
import excalc.cli as cli
after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps([after_import, loaded(), code]))
"""


def run_python(code: str, stdin_text: str = "", flags: tuple = ()) -> str:
    """stdout of `python FLAGS -c CODE` in a fresh interpreter that imports this excalc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(
    argv: list[str], stdin_text: str = "", lazy: tuple = LAZY, flags: tuple = ()
) -> tuple[list, list, int]:
    return tuple(json.loads(run_python(PROBE.format(lazy=lazy, argv=argv), stdin_text, flags)))


@pytest.mark.parametrize(
    "argv, stdin_text, want",
    [
        pytest.param(["eval", "--dim", "3", "e1^e2"], "", [], id="eval"),
        pytest.param(
            ["eval", "--dim", "3", "--format", "json", "*(e1 v e2) + ip(e1, e1)"], "", [],
            id="eval-json",
        ),
        pytest.param(
            ["table", "--op", "q-vee", "--dim", "2", "--format", "csv"], "", TABLE, id="table"
        ),
        # one product per row, each of 64 pairs: the dict kernel, no numpy
        pytest.param(["table", "--op", "pseudo-vee", "--dim", "6"], "", TABLE, id="table-d6"),
        # one product per row against the sum of all 64 blades: still the dict kernel
        pytest.param(
            ["table", "--op", "q-vee", "--dim", "6", "--format", "csv"], "", TABLE,
            id="table-q-vee-d6",
        ),
        pytest.param(["repl", "--dim", "3"], ":let x = e1 + e2\nx ^ e3\n", [], id="repl"),
        pytest.param(
            ["repl", "--dim", "3"], ":let x = e1 + e2\nx ^ e3\n:table wedge\n", TABLE,
            id="repl-table",
        ),
        # C(4, 2) = 6 or C(7, 3) = 35 minors: one fold of wedges either way, no numpy
        pytest.param(
            ["eval", "--dim", "4", "--factors", f"F={vandermonde(4, 2)}", "F"], "",
            ["excalc.extensors"],
            id="factors-6-minors",
        ),
        pytest.param(
            ["eval", "--dim", "7", "--factors", f"F={vandermonde(7, 3)}", "F"], "",
            ["excalc.extensors"],
            id="factors-35-minors",
        ),
        # 1016 (blade, mode) visits, the most of any list the CLI benchmark draws:
        # still the dict fold, no numpy
        pytest.param(
            ["eval", "--dim", "8", "--factors", f"F={vandermonde(8, 7)}", "F"], "",
            ["excalc.extensors"],
            id="factors-d8-k7",
        ),
        pytest.param(
            ["fock", "--matrix", "create:1", "--dim", "2"], "", ["excalc.fock"],
            id="fock",
        ),
        # one product of 256 pairs, at the bound past which the dense kernel may pay
        pytest.param(
            ["fock", "--matrix", "annihilate:8", "--dim", "8"], "", ["excalc.fock"],
            id="fock-d8",
        ),
        pytest.param(
            ["verify-paper"], "", ["excalc.verify", "excalc.extensors", *TABLE, "excalc.fock"],
            id="verify-paper",
        ),
    ],
)
def test_each_subcommand_loads_only_what_it_runs(argv, stdin_text, want):
    after_import, after_main, code = loaded_after(argv, stdin_text)
    assert after_import == []
    assert code == 0
    assert after_main == want


# the subcommands that run without numpy, which `python -S` cannot import
NO_NUMPY = [
    pytest.param(["eval", "--dim", "3", "e1^e2"], id="eval"),
    pytest.param(["eval", "--dim", "4", "--factors", f"F={vandermonde(4, 2)}", "F"], id="factors"),
    pytest.param(
        ["eval", "--dim", "4", "--factors", f"F={vandermonde(4, 4)}", "F"], id="factors-4x4"
    ),
    pytest.param(["table", "--op", "q-vee", "--dim", "2"], id="table"),
    pytest.param(["verify-paper"], id="verify-paper"),
    pytest.param(["fock", "--matrix", "create:3", "--dim", "8"], id="fock"),
    pytest.param(
        ["fock", "--matrix", "annihilate:2", "--dim", "4", "--format", "json"], id="fock-json"
    ),
    pytest.param(
        ["fock", "--matrix", "create:3", "--dim", "8", "--format", "json"], id="fock-json-d8"
    ),
]


@pytest.mark.parametrize("argv", NO_NUMPY)
def test_starts_without_typing(argv):
    # -S: a `.pth` file in site-packages may import `typing` before excalc does
    after_import, after_main, code = loaded_after(argv, lazy=("typing", "numpy"), flags=("-S",))
    assert (after_import, after_main, code) == ([], [], 0)


@pytest.mark.parametrize("argv", NO_NUMPY)
def test_starts_without_shutil(argv):
    # a HelpFormatter without a width imports shutil to measure the terminal
    after_import, after_main, code = loaded_after(argv, lazy=("shutil",), flags=("-S",))
    assert (after_import, after_main, code) == ([], [], 0)


def test_blade_byte_tables_are_built_on_first_use_not_at_import():
    out = run_python(
        "import excalc.cli; from excalc import multivector as m;"
        " print(m._blade_bytes.cache_info().currsize, m.indices_from_mask(0x8101),"
        " m._blade_bytes.cache_info().currsize)"
    )
    assert out == "0 (1, 9, 16) 1\n"


def test_is_decomposable_and_expand_load_no_numpy():
    out = run_python(
        "import sys; from excalc.multivector import Multivector;"
        " from excalc.extensors import ExtensorFactors, expand, is_decomposable;"
        " print(is_decomposable(Multivector(4, {0b0011: 1, 0b1100: 1})),"
        " is_decomposable(expand(ExtensorFactors(4, ((1, 2, 0, -1), (0, 1, 3, 2))))),"
        " 'numpy' in sys.modules)"
    )
    assert out == "False True False\n"


def test_is_decomposable_past_the_array_fold_cut_loads_no_numpy():
    # its d=10, k=4 expand passes the cut, but every join vector holds exact
    # zeros, so its fold stays on the dict
    out = run_python(
        "import sys; from excalc.multivector import Multivector;"
        " from excalc.extensors import is_decomposable;"
        " print(is_decomposable(Multivector(10, {0b1111: 1, 0b11110: 0.5})),"
        " 'numpy' in sys.modules)"
    )
    assert out == "True False\n"


@pytest.mark.parametrize("command", ["eval", "table"])
def test_help_wraps_at_78_columns_whatever_the_terminal(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    lines = capsys.readouterr().out.splitlines()
    # the usage line is longer than 78 columns, so it wraps
    assert lines[0].startswith("usage: excalc") and lines[1].startswith(" ")
    assert max(map(len, lines)) <= 78


def test_verify_does_not_import_the_cli():
    # `python -m excalc.cli verify-paper` runs cli.py as __main__; importing it
    # again as `excalc.cli` would compile it a second time
    out = run_python("import sys, excalc.verify; print('excalc.cli' in sys.modules)")
    assert out == "False\n"


def test_command_functions_call_the_names_in_cli(monkeypatch, capsys):
    calls = []

    def fake_table(op, d, fmt):
        calls.append(("table", op, d, fmt))
        return "patched table\n"

    def fake_matrix(d, kind, i):
        calls.append(("matrix", d, kind, i))
        return [[0j, 1 + 0j], [2j, 0j]]

    monkeypatch.setattr(cli, "table_command", fake_table)
    monkeypatch.setattr(cli, "operator_matrix", fake_matrix)
    assert cli.main(["table", "--op", "vee", "--dim", "2"]) == 0
    assert cli.main(["fock", "--matrix", "annihilate:1", "--dim", "1"]) == 0
    assert cli.main(["fock", "--matrix", "create:1", "--dim", "1", "--format", "json"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["patched table", "0 1", "2i 0"]
    assert json.loads(out[3])["matrix"] == [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 2.0], [0.0, 0.0]]]
    assert calls == [
        ("table", "vee", 2, "text"),
        ("matrix", 1, "annihilate", 1),
        ("matrix", 1, "create", 1),
    ]
