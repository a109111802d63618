"""Command line front end.

Subcommands: `eval` one expression, `table` a full pair table, `repl` an
interactive session, `verify-paper` the bundled verification suite, `fock` a
ladder-operator matrix dump.  Exit codes: 0 success, 1 evaluation error,
2 syntax error, 3 verification failure.  EXCALC_TOL overrides the default
1e-12 comparison tolerance.

Each subcommand imports only what it runs.  `eval`, `table` and `repl` load
numpy only through `excalc.dense`, for dense operands or a `--factors` list
of 32 or more minors; `fock` loads it for its matrices; `verify-paper` does
not load it.  `table_command` and `operator_matrix` are called through this
module's names, so a caller can wrap them here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ExcalcError, ExprSyntaxError
from .expr import Environment, evaluate_text
from .fock import operator_matrix
from .multivector import PRUNE_TOL, Multivector
from .tables import TABLE_OPS, table_command
from .textform import format_number, scalar_to_text

EXIT_OK = 0
EXIT_EVAL = 1
EXIT_SYNTAX = 2
EXIT_VERIFY = 3


def comparison_tolerance() -> float:
    raw = os.environ.get("EXCALC_TOL")
    if raw is None:
        return PRUNE_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ExcalcError(f"EXCALC_TOL is not a number: {raw!r}")
    if not tol > 0:
        raise ExcalcError(f"EXCALC_TOL must be positive: {raw!r}")
    return tol


def format_result(value: Multivector | complex, fmt: str) -> str:
    if isinstance(value, Multivector):
        if fmt == "json":
            return json.dumps(value.to_json(), indent=2)
        if fmt == "csv":
            lines = ["blade,re,im"]
            data = value.to_json()
            for term in data["terms"]:
                blade = "^".join(f"e{i}" for i in term["blade"]) or "1"
                lines.append(f"{blade},{term['re']!r},{term['im']!r}")
            return "\n".join(lines)
        return value.to_text()
    if fmt == "json":
        return json.dumps({"re": value.real, "im": value.imag})
    if fmt == "csv":
        return f"re,im\n{value.real!r},{value.imag!r}"
    return scalar_to_text(value)


def _format_matrix_entry(c: complex) -> str:
    if c.imag == 0.0:
        return format_number(c.real)
    if c.real == 0.0:
        return format_number(c.imag) + "i"
    sign = "+" if c.imag >= 0 else "-"
    return f"{format_number(c.real)}{sign}{format_number(abs(c.imag))}i"


def cmd_eval(args) -> int:
    env = Environment(args.dim)
    for binding in args.factors or ():
        name, _, where = binding.partition("=")
        name = name.strip()
        if not name.isidentifier() or not where:
            raise ExcalcError(f"--factors wants NAME=FILE_OR_JSON, got {binding!r}")
        where = where.strip()
        try:
            if where.startswith("{"):
                data = json.loads(where)
            else:
                with open(where) as f:
                    data = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            raise ExcalcError(f"cannot read factor list {where!r}: {err}")
        from .extensors import ExtensorFactors, expand

        env.bind(name, expand(ExtensorFactors.from_json(data)))
    value = evaluate_text(args.expression, env)
    print(format_result(value, args.format))
    return EXIT_OK


def cmd_table(args) -> int:
    print(table_command(args.op, args.dim, args.format, comparison_tolerance()), end="")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import format_report, run_verification

    results = run_verification(tol=comparison_tolerance())
    sys.stdout.write(format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def cmd_fock(args) -> int:
    kind, _, index = args.matrix.partition(":")
    if kind not in ("create", "annihilate") or not index.isdecimal():
        raise ExcalcError(f"--matrix wants create:<i> or annihilate:<i>, got {args.matrix!r}")
    matrix = operator_matrix(args.dim, kind, int(index))
    if args.format == "json":
        payload = {
            "op": kind,
            "index": int(index),
            "dim": args.dim,
            "matrix": [[[c.real, c.imag] for c in row] for row in matrix.tolist()],
        }
        print(json.dumps(payload))
    else:
        for row in matrix:
            print(" ".join(_format_matrix_entry(c) for c in row))
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
                words = line.split()[1:]
                if len(words) != 1 or not words[0].isdecimal():
                    raise ExcalcError(":dim wants one integer dimension")
                env = Environment(int(words[0]))
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
                out.write(table_command(parts[1], env.d, "text", comparison_tolerance()))
            elif command:
                raise ExcalcError(f"unknown command {command!r}")
            else:
                value = evaluate_text(line, env)
                out.write(format_result(value, "text") + "\n")
        except ExcalcError as err:
            sys.stderr.write(f"error: {err}\n")
        except (ValueError, IndexError, OverflowError) as err:
            sys.stderr.write(f"error: {err}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excalc",
        description="exterior calculus on finite fermion-hole spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one expression")
    p_eval.add_argument("--dim", type=int, required=True)
    p_eval.add_argument("--format", choices=("text", "json", "csv"), default="text")
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
    p_table.add_argument("--dim", type=int, required=True)
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.set_defaults(func=cmd_table)

    p_repl = sub.add_parser("repl", help="interactive session")
    p_repl.add_argument("--dim", type=int, default=2)
    p_repl.set_defaults(func=cmd_repl)

    p_verify = sub.add_parser(
        "verify-paper", help="replay the bundled reference tables and identities"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_fock = sub.add_parser("fock", help="ladder operator matrix in the blade basis")
    p_fock.add_argument("--matrix", required=True, metavar="KIND:INDEX")
    p_fock.add_argument("--dim", type=int, required=True)
    p_fock.add_argument("--format", choices=("text", "json"), default="text")
    p_fock.set_defaults(func=cmd_fock)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExprSyntaxError as err:
        sys.stderr.write(f"syntax error: {err}\n")
        return EXIT_SYNTAX
    except ExcalcError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_EVAL
    except (ValueError, OverflowError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
