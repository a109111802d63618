"""Command line front end.

Subcommands: `eval` one expression, `table` a full pair table, `repl` an
interactive session, `verify-paper` the bundled verification suite, `fock` a
ladder-operator matrix dump.  Exit codes: 0 success, 1 evaluation error,
2 syntax error, 3 verification failure.  An error quotes at most 80
characters of a `--dim`, `--factors` or `--matrix` value or a REPL command,
and at most 80 digits of an integer.  argparse's own usage errors quote a
bad subcommand, choice or extra argument cut at 80 characters too.  A reader
that closes stdout before the output is written ends the command, `--help`
included, with exit 1, quietly: no traceback and nothing on stderr.

Each subcommand imports only what it runs.  `eval` and `repl` load the
algebra, the expression language and the text forms (`multivector`, `expr`,
`textform`), plus `extensors` for a `--factors` list; `repl`'s `:table`
adds what `table` loads.  `table` adds `tables` and the set-gate and qubit
modules it tabulates, `fock` adds only `fock`, and `verify-paper` adds
`verify` with everything it checks; none of them loads numpy.  `eval`,
`table` and `repl` load numpy only through `excalc.dense`, for dense operands.
`table_command` and `operator_matrix` here import the real functions when
first called, and the command functions call them through these names, so a
caller can wrap or replace them here.  A replacement returns what the real
function returns: for `operator_matrix`, plain lists of Python complex, no
part of them a negative zero.  `table` and `fock` print from strings
rendered once per distinct label, cell or matrix entry (`tables`, `fock`).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial

from .errors import ExcalcError, ExprSyntaxError
from .expr import Environment, evaluate_text
from .multivector import Multivector
from .textform import TABLE_FORMATS, TABLE_OPS, format_result

EXIT_OK = 0
EXIT_EVAL = 1
EXIT_SYNTAX = 2
EXIT_VERIFY = 3
# How deep lists and objects may nest in a `--factors` value.  A factor list
# nests 4 deep; a JSON decoder's own limit is its Python's recursion limit,
# which differs between versions, so this one is well below all of them.
MAX_FACTORS_NESTING = 100
# what a command may raise on bad input; `_report` prints it
_REPORTED = (ExcalcError, ValueError, OverflowError)


def _report(err: Exception) -> int:
    """Write err to stderr and return its exit code: 2 for a syntax error, else 1."""
    if isinstance(err, ExprSyntaxError):
        sys.stderr.write(f"syntax error: {err}\n")
        return EXIT_SYNTAX
    sys.stderr.write(f"error: {err}\n")
    return EXIT_EVAL


def decimal(text: str) -> int:
    """Unsigned ASCII decimal digits as an int, of at most 81 significant digits
    (more are out of range anyway); else an ArgumentTypeError quoting 80 characters."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"invalid decimal value: {text!r:.80}")
    return int(text.lstrip("0")[:81] or "0")


def table_command(op: str, d: int, fmt: str = "text") -> str:
    """`excalc.tables.table_command`, imported when first called."""
    from .tables import table_command

    return table_command(op, d, fmt)


def operator_matrix(d: int, kind: str, i: int):
    """`excalc.fock.operator_matrix`, imported when first called."""
    from .fock import operator_matrix

    return operator_matrix(d, kind, i)


def _nests_too_deep(data) -> bool:
    """Whether lists and objects nest deeper than MAX_FACTORS_NESTING in
    decoded JSON, walked one level at a time rather than by recursion."""
    level, depth = [data], 0
    while level := [x for x in level if type(x) in (list, dict)]:
        depth += 1
        if depth > MAX_FACTORS_NESTING:
            return True
        level = [y for x in level for y in (x.values() if type(x) is dict else x)]
    return False


def cmd_eval(args) -> int:
    env = Environment(args.dim)
    for binding in args.factors or ():
        name, _, where = binding.partition("=")
        name = name.strip()
        if not name.isidentifier() or not where:
            raise ExcalcError(f"--factors wants NAME=FILE_OR_JSON, got {binding!r:.80}")
        where = where.strip()
        try:
            if where.startswith("{"):
                data = json.loads(where)
            else:
                with open(where) as f:
                    data = json.load(f)
            too_deep = _nests_too_deep(data)
        except OSError as err:  # its text would repeat the whole path
            raise ExcalcError(f"cannot read factor list {where!r:.80}: {err.strerror}")
        except ValueError as err:  # bad JSON, or an int past 4300 digits
            raise ExcalcError(f"cannot read factor list {where!r:.80}: {err}")
        except RecursionError:  # past the decoder's limit, which is deeper still
            too_deep = True
        if too_deep:
            raise ExcalcError(
                f"cannot read factor list {where!r:.80}: nesting deeper than {MAX_FACTORS_NESTING}"
            )
        from .extensors import ExtensorFactors, expand

        env.bind(name, expand(ExtensorFactors.from_json(data)))
    value = evaluate_text(args.expression, env)
    print(format_result(value, args.format))
    return EXIT_OK


def cmd_table(args) -> int:
    print(table_command(args.op, args.dim, args.format).rstrip("\n"))  # one final newline
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import format_report, run_verification

    results = run_verification()
    sys.stdout.write(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def cmd_fock(args) -> int:
    kind, _, index = args.matrix.partition(":")
    try:
        if kind not in ("create", "annihilate"):
            raise ValueError(kind)
        i = decimal(index)
    except (ValueError, argparse.ArgumentTypeError):
        raise ExcalcError(f"--matrix wants create:<i> or annihilate:<i>, got {args.matrix!r:.80}")
    from .fock import _matrix_text

    matrix = _matrix_text(operator_matrix(args.dim, kind, i), args.format)
    if args.format == "json":
        print(f'{{"op": "{kind}", "index": {i}, "dim": {args.dim}, "matrix": {matrix}}}')
    else:
        sys.stdout.write(matrix)
    return EXIT_OK


def cmd_repl(args) -> int:
    env = Environment(args.dim)
    interactive = sys.stdin.isatty()
    out = sys.stdout
    if interactive:
        out.write(f"excalc repl, dimension {env.d}; :quit leaves\n")
    while True:
        if interactive:
            out.write("excalc> ")
            out.flush()
        line = sys.stdin.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        # a command is the whole first word, so `:letter` is not `:let`
        command = line.split()[0] if line.startswith(":") else ""
        try:
            if command == ":quit":
                break
            if command == ":dim":
                try:
                    _, word = line.split()
                    d = decimal(word)
                except (ValueError, argparse.ArgumentTypeError):
                    raise ExcalcError(":dim wants one integer dimension")
                env = Environment(d)
                out.write(f"dimension {env.d}\n")
            elif command == ":let":
                name, _, expr_text = line[len(":let"):].partition("=")
                name = name.strip()
                if not name.isidentifier() or not expr_text.strip():
                    raise ExcalcError(":let wants `:let name = expression`")
                value = evaluate_text(expr_text.strip(), env)
                if not isinstance(value, Multivector):
                    value = Multivector.scalar(env.d, value)
                env.bind(name, value)
                out.write(f"{name} = {value.to_text()}\n")
            elif command == ":table":
                parts = line.split()
                if len(parts) != 2 or parts[1] not in TABLE_OPS:
                    raise ExcalcError(f":table wants one of {', '.join(TABLE_OPS)}")
                out.write(table_command(parts[1], env.d, "text"))
            elif command:
                raise ExcalcError(f"unknown command {command!r:.80}")
            else:
                value = evaluate_text(line, env)
                out.write(format_result(value, "text") + "\n")
        except _REPORTED as err:
            _report(err)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """argparse's usage error, each run of more than 80 non-blank
        characters in it cut to its first 80: argparse quotes a bad argument whole."""
        super().error(re.sub(r"\S{81,}", lambda run: run[0][:80], message))


def build_parser() -> argparse.ArgumentParser:
    # help wraps at 78 columns, argparse's width off a terminal; a formatter
    # left to measure the terminal imports shutil on every add_argument
    parser_class = partial(_Parser, formatter_class=partial(argparse.HelpFormatter, width=78))
    parser = parser_class(
        prog="excalc",
        description="exterior calculus on finite fermion-hole spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    p_eval = sub.add_parser("eval", help="evaluate one expression")
    p_eval.add_argument("--dim", type=decimal, required=True)
    p_eval.add_argument("--format", choices=TABLE_FORMATS, default="text")
    p_eval.add_argument(
        "--factors",
        action="append",
        metavar="NAME=FILE_OR_JSON",
        help="bind NAME to the expansion of a serialized factor list",
    )
    p_eval.add_argument("expression")
    p_eval.set_defaults(func=cmd_eval)

    p_table = sub.add_parser("table", help="print a full pair table for one operation")
    p_table.add_argument("--op", choices=TABLE_OPS, required=True)
    p_table.add_argument("--dim", type=decimal, required=True)
    p_table.add_argument("--format", choices=TABLE_FORMATS, default="text")
    p_table.set_defaults(func=cmd_table)

    p_repl = sub.add_parser("repl", help="interactive session")
    p_repl.add_argument("--dim", type=decimal, default=2)
    p_repl.set_defaults(func=cmd_repl)

    p_verify = sub.add_parser(
        "verify-paper", help="replay the bundled reference tables and identities"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_fock = sub.add_parser("fock", help="ladder operator matrix in the blade basis")
    p_fock.add_argument("--matrix", required=True, metavar="KIND:INDEX")
    p_fock.add_argument("--dim", type=decimal, required=True)
    p_fock.add_argument("--format", choices=("text", "json"), default="text")
    p_fock.set_defaults(func=cmd_fock)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # argparse's help or usage error
            sys.stdout.flush()  # a closed pipe raises here, not at exit
            raise
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except _REPORTED as err:
        return _report(err)
    except BrokenPipeError:
        # stdout is gone; point it at devnull so the exit-time flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
