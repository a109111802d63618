"""Every pinned behaviour of the `excalc` command line, as one table of cases.

A `Case` row holds:

- `id`, unique in the table: the case's name in every report;
- `argv`, the arguments after `excalc`;
- `code`, the exit code, 0 by default;
- `out`, the exact stdout, or `out_digest`, the `digest()` of a large one;
- `err`, the exact stderr once the argparse usage lines before a usage
  error are dropped, or `err_start`, its start, where the rest of the line
  is the interpreter's own text;
- `stdin`, what the command reads, and `env`, variables set on top of the
  caller's environment.

`check(case, code, out, err)` compares one run with its case, after
`well_formed(code, out, err)` has asserted what holds for every run: stdout
is empty or ends in a newline, stderr holds no `Traceback`, and after a
nonzero exit exactly one error line.

Tier-1 runs each case once, in process through `run_in_process`, as
`test_cli_case[<id>]`.  `python tests/cli_cases.py` runs each case through
the `excalc` on PATH, as a real process with a 60 s timeout; it prints the
id of every case that fails and exits 1 if any did.  A new pin is one more
row.  What only a real process shows stays out of the table: a reader that
closed the pipe, and which modules a command loads.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from typing import NamedTuple


class Case(NamedTuple):
    id: str
    argv: list[str]
    code: int = 0
    out: str = ""
    err: str = ""
    stdin: str = ""
    env: dict[str, str] | None = None
    out_digest: str = ""
    err_start: str = ""


def case(id: str, command: str, *args: str, **fields) -> Case:
    """A case whose argv is the words of `command`, then `args` as they are."""
    return Case(id, [*command.split(), *args], **fields)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def factor_list(d: int, rows) -> str:
    return json.dumps({"dim": d, "factors": [[{"re": x, "im": 0} for x in r] for r in rows]})


def vandermonde(d: int, k: int) -> str:
    """k Vandermonde rows in dimension d, so every one of the C(d, k) minors is nonzero."""
    return factor_list(d, [[(r + 1) ** c for c in range(d)] for r in range(k)])


def blade_sum(d: int, grades, coeff: str) -> str:
    """The sum of every blade of the given grades in dimension d, each as `coeff * blade`."""
    blades = (c for g in grades for c in combinations(range(1, d + 1), g))
    return " + ".join(f"{coeff} * " + "^".join(f"e{i}" for i in c) for c in blades)


def json_terms(*terms) -> str:
    """`eval --format json` at d=2 of the (blade, re, im) terms."""
    payload = {"dim": 2, "terms": [{"blade": b, "re": x, "im": y} for b, x, y in terms]}
    return json.dumps(payload, indent=2) + "\n"


def bad_matrix(matrix: str) -> str:
    return f"error: --matrix wants create:<i> or annihilate:<i>, got {matrix!r}\n"


def bad_dim(command: str, value: str) -> str:
    return f"excalc {command}: error: argument --dim: invalid decimal value: {value!r:.80}\n"


X_FACTORS = factor_list(3, [[1, 1, 0], [0, 1, 1]])
NESTED = '{"dim": ' + "[" * 3000 + "]" * 3000 + "}"
NESTING = "syntax error: nesting deeper than 100 at 1:101\n"
END_AT_5 = (
    "syntax error: unexpected end of input at 1:5"
    " (expected basis vector | E | scalar | name | ip( | ()\n"
)
FORM = 'error: a factor list is {"dim": d, "factors": [[{"re": x, "im": y}, ...], ...]}, got '
MASK_0X3 = "error: non-finite coefficient (inf+0j) on blade mask 0x3\n"
DIM_WORD = "error: :dim wants one integer dimension\n"
BIND_E = "error: cannot bind 'E': an expression does not read it as a name\n"
EVAL_3 = "eval --dim 3 --"
ONES = "1" * 3000
ONES_80 = "1" * 80 + "..."

CASES = [
    # eval: values and formats
    case("eval-text", "eval --dim 2", "e1 ^ e2", out="E\n"),
    case("eval-sum", "eval --dim 3", "e1 ^ e2 + 2 * e3", out="2 * e3 + e1^e2\n"),
    case("eval-json-star", "eval --dim 2 --format json", "*(e2)", out=json_terms(([1], -1.0, 0.0))),
    case("eval-csv", "eval --dim 3 --format csv", "2 * e1 + i * E",
         out="blade,re,im\ne1,2.0,0.0\ne1^e2^e3,0.0,1.0\n"),
    case("eval-csv-top", "eval --dim 3 --format csv", "e1^e2 + 2i * E",
         out="blade,re,im\ne1^e2,1.0,0.0\ne1^e2^e3,0.0,2.0\n"),
    case("eval-scalar", "eval --dim 3", "ip(e1, e1)", out="1\n"),
    case("eval-scalar-json", "eval --dim 3 --format json", "ip(e1, e2)",
         out='{"re": 0.0, "im": 0.0}\n'),
    # the first term keeps its negative zero
    case("eval-json-negative-zero", "eval --dim 2 --format json", "-i*e1 + e2",
         out=json_terms(([1], -0.0, -1.0), ([2], 1.0, 0.0))),
    case("eval-cancelling-sum", "eval --dim 3",
         "ip(-0.3 - 0.1 * 1 - i * 1 ^ i * 0.1 ^ ~1 + 0.3 - -i ^ i * i, 0.3)", out="0.3i\n"),
    # a worked-example row of verify-paper, as eval prints it
    case("eval-worked-example", "eval --dim 4", "e1^e2 v e3^e4^e1", out="e1\n"),
    # eval's text reads back as itself: a part at most PRUNE_TOL prints as 0,
    # in a multivector and in a root ip(...) scalar
    case("eval-pruned-part", "eval --dim 2", "(e1 + 1e-7 * e2) ^ (e2 + 1e-7i * e1)", out="E\n"),
    case("eval-pruned-part-read-back", "eval --dim 2 --", "E", out="E\n"),
    case("eval-root-scalar", "eval --dim 2", "ip(e1 + 1e-7i * e2, e1 + 1e-7 * e2)", out="1\n"),
    case("eval-root-scalar-read-back", "eval --dim 2 --", "1", out="1\n"),
    # the closed-form signs at the top mode: the star sign of e16 and a merge sign past e16
    case("eval-star-e16", "eval --dim 16", "*e16",
         out="-" + "^".join(f"e{i}" for i in range(1, 16)) + "\n"),
    case("eval-merge-past-e16", "eval --dim 16", "e16 ^ e15 ^ e1", out="-e1^e15^e16\n"),
    # a prefix takes a run's first index: 2i * e2^e1 is (2i * e2)^e1, whose
    # real part is 0.0, where the bracketed run's sign flip leaves -0.0
    case("eval-json-prefixed-run", "eval --dim 2 --format json", "2i * e2^e1",
         out=json_terms(([1, 2], 0.0, -2.0))),
    case("eval-json-prefixed-bracketed-run", "eval --dim 2 --format json", "2i * (e2^e1)",
         out=json_terms(([1, 2], -0.0, -2.0))),
    # blanks are lexed with the next token: tabs and CRLF between tokens
    case("eval-tabs-and-crlf", EVAL_3, "e3\t^ e1 ^\r\n  2i * e2", out="2i * E\n"),
    # a cached basis leaf still prunes at every step of a wedge chain
    case("eval-wedge-chain-prunes", "eval --dim 3", "1e-7 * e1 ^ 1e-7 * e2 ^ 1e10 * e3", out="0\n"),
    # the largest finite literal and an underflow to zero still evaluate
    case("eval-largest-literal", EVAL_3, "1.7e308*e1 + 1e-400i", out="1.7e+308 * e1\n"),
    case("eval-chain-5000", EVAL_3, "+".join(["e1"] * 5000), out="5000 * e1\n"),
    case("eval-index-leading-zeros", EVAL_3, "e" + "0" * 5000 + "2", out="e2\n"),
    # eval: errors
    case("eval-syntax-error", "eval --dim 2", "e1 ^", code=2, err=END_AT_5),
    case("eval-syntax-error-e1-plus", "eval --dim 3", "e1 +", code=2, err=END_AT_5),
    case("eval-step-mismatch", "eval --dim 2", "ip(e1, E)", code=1,
         err="error: scalar product undefined between steps 1 and 2\n"),
    case("eval-unbound-name", "eval --dim 2", "nope", code=1, err="error: unbound name 'nope'\n"),
    case("eval-unknown-character", EVAL_3, "e1 +\n\t $ e2", code=2,
         err="syntax error: unknown character '$' at 2:3\n"),
    case("eval-nesting-3000", EVAL_3, "(" * 3000 + "e1" + ")" * 3000, code=2, err=NESTING),
    case("eval-prefix-5000", EVAL_3, "*" * 5000 + "e1", code=2, err=NESTING),
    case("eval-overflowing-literal", EVAL_3, "1e400*e1", code=2,
         err="syntax error: number '1e400' overflows at 1:1\n"),
    case("eval-overflowing-product", "eval --dim 3", "1e200*e1 ^ 1e200*e2", code=1, err=MASK_0X3),
    case("eval-no-finite-magnitude", "eval --dim 1", "1.5e308 + 1.5e308i", code=1,
         err="error: coefficient (1.5e+308+1.5e+308j) on blade mask 0x0 has no finite magnitude\n"),
    # an overflowing join names the blade of the result, the scalar
    case("eval-overflowing-join", "eval --dim 2 --", "1e200*e1 v 1e200*e2", code=1,
         err="error: non-finite coefficient (inf+0j) on blade mask 0x0\n"),
    # an overflow still surfaces before the range error of a later leaf
    case("eval-overflow-before-range", EVAL_3, "1e200 * e1 ^ 1e200 * e2 ^ e9", code=1,
         err=MASK_0X3),
    # 36 x 92 terms take the dense wedge, whose overflow prints no numpy warning
    case("eval-dense-overflow", "eval --dim 8 --",
         f"({blade_sum(8, (1, 2), '1e200')}) ^ ({blade_sum(8, (1, 2, 3), '1e200')})", code=1,
         err="error: non-finite coefficient (nan+nanj) on blade mask 0x3\n"),
    case("eval-index-17", "eval --dim 16", "e17", code=1,
         err="error: e17 does not exist in dimension 16\n"),
    # every echo of a long run is cut at 80 characters
    case("eval-index-5000-digits", EVAL_3, "e" + "1" * 5000, code=1,
         err="error: e" + "1" * 80 + "... does not exist in dimension 3\n"),
    case("eval-index-4000-digits", EVAL_3, "e" + "9" * 4000, code=1,
         err="error: e" + "9" * 80 + "... does not exist in dimension 3\n"),
    case("eval-index-zeros-then-letter", EVAL_3, "e" + "0" * 5000 + "x", code=1,
         err="error: unbound name 'e" + "0" * 78 + "\n"),
    case("eval-long-name", EVAL_3, "x" * 5000, code=1,
         err="error: unbound name '" + "x" * 79 + "\n"),
    # a syntax error quotes a run's first index
    case("eval-unexpected-run", EVAL_3, "e1 e2^e3", code=2,
         err="syntax error: unexpected 'e2' at 1:4 (expected operator | end of input)\n"),
    case("eval-long-unexpected", EVAL_3, "e1 " + "x" * 5000, code=2,
         err="syntax error: unexpected '" + "x" * 79
         + " at 1:4 (expected operator | end of input)\n"),
    case("eval-long-literal", EVAL_3, "1" * 5000 + " * e1", code=2,
         err="syntax error: number '" + "1" * 79 + " overflows at 1:1\n"),
    # ASCII digits only: --dim is a usage error where int() would read the
    # text, and an Arabic-Indic digit, decimal to str.isdecimal and to the
    # regex \d, ends a number
    case("eval-dim-arabic-indic", "eval --dim \u0663 e1^e2", code=2, err=bad_dim("eval", "\u0663")),
    case("eval-dim-underscore", "eval --dim 1_0 e10", code=2, err=bad_dim("eval", "1_0")),
    # a long --dim is quoted cut at 80 characters, an integer with `...` after
    # them, as are a long ladder index, :dim and factor-list coefficient below
    case("eval-dim-3000-digits", "eval --dim", ONES, "e1", code=1,
         err=f"error: dimension must be an integer in 1..16, got {ONES_80}\n"),
    case("eval-dim-5000-digits", "eval --dim", "1" * 5000, "e1", code=1,
         err=f"error: dimension must be an integer in 1..16, got {ONES_80}\n"),
    case("eval-dim-long-word", "eval --dim", "x" * 5000, "e1", code=2,
         err=bad_dim("eval", "x" * 5000)),
    # argparse's own usage errors quote a long argument cut at 80 characters;
    # what follows a bad choice is the interpreter's own text
    case("table-long-op", "table --op", "x" * 3000, "--dim", "2", code=2,
         err_start="excalc table: error: argument --op: invalid choice: '" + "x" * 79
         + " (choose from "),
    case("eval-long-extra-argument", "eval --dim 3 e1", "x" * 3000, code=2,
         err="excalc: error: unrecognized arguments: " + "x" * 80 + "\n"),
    case("long-subcommand", "", "x" * 3000, code=2,
         err_start="excalc: error: argument command: invalid choice: '" + "x" * 79
         + " (choose from "),
    case("eval-arabic-indic-integer", "eval --dim 3", "1\u0663 * e1", code=2,
         err="syntax error: unknown character '\u0663' at 1:2\n"),
    case("eval-arabic-indic-exponent", "eval --dim 3", "1e\u0663 * e1", code=2,
         err="syntax error: unknown character '\u0663' at 1:3\n"),
    case("eval-arabic-indic-fraction", "eval --dim 3", "2.\u0665 * e2", code=2,
         err="syntax error: unknown character '.' at 1:2\n"),
    # eval --factors: integer lists expand exactly; the 4 x 4 Vandermonde
    # determinant is 12, and rows (1, 2, 3) and (2, 4, 6) have rank 1
    case("factors-vandermonde-4", "eval --dim 4 --factors", "F=" + vandermonde(4, 4), "F",
         out="12 * E\n"),
    case("factors-dependent", "eval --dim 3 --factors", "F=" + factor_list(
        3, [[s * c for c in (1, 2, 3)] for s in (1, 2)]), "F", out="0\n"),
    case("factors-vandermonde-7-3", "eval --dim 7 --factors", "F=" + vandermonde(7, 3),
         "F ^ e4", out=(
        "2 * e1^e2^e3^e4 - 50 * e1^e2^e4^e5 - 180 * e1^e2^e4^e6 - 602 * e1^e2^e4^e7"
        " - 120 * e1^e3^e4^e5 - 478 * e1^e3^e4^e6 - 1680 * e1^e3^e4^e7 + 1150 * e1^e4^e5^e6"
        " + 5880 * e1^e4^e5^e7 + 7322 * e1^e4^e6^e7 - 72 * e2^e3^e4^e5 - 300 * e2^e3^e4^e6"
        " - 1080 * e2^e3^e4^e7 + 1020 * e2^e4^e5^e6 + 5328 * e2^e4^e5^e7 + 6900 * e2^e4^e6^e7"
        " + 792 * e3^e4^e5^e6 + 4320 * e3^e4^e5^e7 + 6120 * e3^e4^e6^e7 - 2592 * e4^e5^e6^e7\n")),
    case("factors-inline", "eval --dim 3 --factors", "x=" + X_FACTORS, "x ^ e1", out="E\n"),
    case("factors-missing-file", "eval --dim 3 --factors x=/does/not/exist.json x", code=1,
         err="error: cannot read factor list '/does/not/exist.json': No such file or directory\n"),
    case("factors-no-dim", "eval --dim 3 --factors", 'x={"x":1}', "x", code=1,
         err=FORM + "{'x': 1} (KeyError: 'dim')\n"),
    case("factors-bare-numbers", "eval --dim 3 --factors", 'x={"dim":3,"factors":[[1,2,3]]}', "x",
         code=1, err=FORM + "{'dim': 3, 'factors': [[1, 2, 3]]}"
         " (TypeError: 'int' object is not subscriptable)\n"),
    # a bool is not a number: "re": true in a factor list is an evaluation error
    case("factors-bool-coefficient", "eval --dim 3 --factors",
         'F={"dim":3,"factors":[[{"re":true,"im":0},{"re":0,"im":0},{"re":0,"im":0}]]}', "F",
         code=1, err=FORM + "{'dim': 3, 'factors': [[{'re': True, 'im': 0}, {'re': 0, 'im': 0},"
         " {'re': 0, 'im (TypeError: re and im must be int or float numbers)\n"),
    case("factors-reserved-name", "eval --dim 1 --factors",
         'E={"dim": 1, "factors": [[{"re": 1, "im": 0}]]}', "E", code=1, err=BIND_E),
    case("factors-bool-dimension", "eval --dim 1 --factors",
         'F={"dim": true, "factors": [[{"re": 1, "im": 0}]]}', "--format", "json", "F", code=1,
         err="error: dimension must be an integer in 1..16, got True\n"),
    # a factor list nested 3000 deep cannot be read: one error line, exit 1,
    # the same on every Python, whether or not its JSON decoder reads that deep
    case("factors-nested-3000", "eval --dim 2 --factors", "F=" + NESTED, "F", code=1,
         err="error: cannot read factor list '" + '{"dim": ' + "[" * 71
         + ": nesting deeper than 100\n"),
    case("factors-long-binding", "eval --dim 2 --factors", "x" * 5000, "e1", code=1,
         err="error: --factors wants NAME=FILE_OR_JSON, got '" + "x" * 79 + "\n"),
    case("factors-long-coefficient", "eval --dim 1 --factors",
         'F={"dim": 1, "factors": [[{"re": ' + ONES + ', "im": 0}]]}', "F", code=1,
         err=f"error: coefficient {ONES_80} + 0j is not a number\n"),
    # a number past the interpreter's 4300-digit limit cannot be read
    case("factors-5000-digit-coefficient", "eval --dim 1 --factors",
         'F={"dim": 1, "factors": [[{"re": ' + "1" * 5000 + ', "im": 0}]]}', "F", code=1,
         err_start="error: cannot read factor list '" + '{"dim": 1, "factors": [[{"re": '
         + "1" * 48 + ": Exceeds the limit (4300"),
    case("factors-long-path", "eval --dim 2 --factors", "F=/" + "a" * 5000, "F", code=1,
         err="error: cannot read factor list '/" + "a" * 78 + ": File name too long\n"),
    # table: the set gates match a +1 coefficient within PRUNE_TOL and
    # nothing overrides it, so EXCALC_TOL changes nothing
    case("table-pseudo-vee-d2", "table --op pseudo-vee --dim 2 --format csv",
         out_digest="633615cb5bc4aa61"),
    case("table-pseudo-vee-d3", "table --op pseudo-vee --dim 3 --format csv",
         out_digest="24ee615094c2ea2f"),
    case("table-vee-d3", "table --op vee --dim 3 --format csv", out_digest="363344b824acbfb2"),
    case("table-pseudo-wedge-d2", "table --op pseudo-wedge --dim 2", out_digest="c1f5ab01509d1a40"),
    case("table-pseudo-wedge-d2-tol", "table --op pseudo-wedge --dim 2", env={"EXCALC_TOL": "2.5"},
         out_digest="c1f5ab01509d1a40"),
    case("table-pseudo-wedge-d2-tol-word", "table --op pseudo-wedge --dim 2",
         env={"EXCALC_TOL": "x"}, out_digest="c1f5ab01509d1a40"),
    case("table-pseudo-wedge-d3", "table --op pseudo-wedge --dim 3 --format csv",
         out_digest="1accd5f1e5a34201"),
    case("table-pseudo-wedge-d3-tol", "table --op pseudo-wedge --dim 3 --format csv",
         env={"EXCALC_TOL": "2.5"}, out_digest="1accd5f1e5a34201"),
    # the JSON layout, with all 4096 entries and a final newline
    case("table-q-vee-d6-json", "table --op q-vee --dim 6 --format json",
         out_digest="33d479975403b60c"),
    # fock: at d=8 each matrix has 256 rows and 128 nonzero entries, and
    # annihilation, from the vee kernel, no negative-zero part
    case("fock-create-text", "fock --matrix create:1 --dim 1", out="0 0\n1 0\n"),
    case("fock-annihilate-json-d2", "fock --matrix annihilate:2 --dim 2 --format json", out=(
        '{"op": "annihilate", "index": 2, "dim": 2, "matrix": [[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0],'
        " [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0],"
        " [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}\n")),
    case("fock-annihilate-json-d3", "fock --matrix annihilate:2 --dim 3 --format json",
         out_digest="96c11d8dadd3e067"),
    case("fock-create-json-d8", "fock --matrix create:3 --dim 8 --format json",
         out_digest="d7d170905a3baef2"),
    case("fock-annihilate-json-d8", "fock --matrix annihilate:3 --dim 8 --format json",
         out_digest="d845547216887a39"),
    case("fock-unknown-kind", "fock --matrix smash:1 --dim 2", code=1, err=bad_matrix("smash:1")),
    case("fock-index-superscript", "fock --matrix create:\u00b2 --dim 3", code=1,
         err=bad_matrix("create:\u00b2")),
    case("fock-index-circled", "fock --matrix annihilate:\u2460 --dim 3", code=1,
         err=bad_matrix("annihilate:\u2460")),
    case("fock-index-empty", "fock --matrix create: --dim 3", code=1, err=bad_matrix("create:")),
    case("fock-index-negative", "fock --matrix create:-1 --dim 3", code=1,
         err=bad_matrix("create:-1")),
    case("fock-index-arabic-indic", "fock --matrix create:\u0661 --dim 3", code=1,
         err=bad_matrix("create:\u0661")),
    case("fock-dim-arabic-indic", "fock --matrix create:1 --dim \u0662", code=2,
         err=bad_dim("fock", "\u0662")),
    case("fock-long-matrix", "fock --matrix", "create:" + "x" * 3000, "--dim", "3", code=1,
         err="error: --matrix wants create:<i> or annihilate:<i>, got 'create:" + "x" * 72 + "\n"),
    case("fock-index-3000-digits", "fock --matrix", "create:" + ONES, "--dim", "3", code=1,
         err=f"error: basis index {ONES_80} outside 1..3\n"),
    case("verify-paper", "verify-paper", out_digest="1594e1719d2b9b9c"),
    # repl: a bad line is reported, as eval would report it, and the session reads on
    case("repl-session", "repl --dim 2",
         stdin=":let x = e1 + e2\nx ^ e2\n:dim 3\n*(e2)\ne9\n:bogus\n:quit\n",
         out="x = e1 + e2\nE\ndimension 3\n-e1^e3\n",
         err="error: e9 does not exist in dimension 3\nerror: unknown command ':bogus'\n"),
    case("repl-table", "repl --dim 3", stdin=":let x = e1 + e2\nx ^ e3\n:table q-wedge\n",
         out_digest="c52d2d9d88863d03"),
    case("repl-syntax-error", "repl --dim 3", stdin="e1 +\ne1\n", out="e1\n", err=END_AT_5),
    # the bad :dim lines leave the dimension at 2, where *(e1) is e2
    case("repl-dim-one-integer", "repl --dim 2",
         stdin=":dim\n:dim 3 4\n:dim x\n:dim -1\n*(e1)\n:dim 99\n:dim 3\n*(e1)\n",
         out="e2\ndimension 3\ne2^e3\n",
         err=DIM_WORD * 4 + "error: dimension must be an integer in 1..16, got 99\n"),
    case("repl-dim-arabic-indic", "repl --dim 2", stdin=":dim \u0663\n*(e1)\n", out="e2\n",
         err=DIM_WORD),
    # a command is the whole first word, and a reserved name cannot be bound
    case("repl-command-words", "repl --dim 2",
         stdin=":letter = e1\n:dimension 3\n:let E = e1\nE\nter\n:quit now\ne1\n", out="E\n",
         err="error: unknown command ':letter'\nerror: unknown command ':dimension'\n" + BIND_E
         + "error: unbound name 'ter'\n"),
    case("repl-letter", "repl", stdin=":letter = e1\n", err="error: unknown command ':letter'\n"),
    case("repl-dim-3000-digits", "repl", stdin=f":dim {ONES}\n",
         err=f"error: dimension must be an integer in 1..16, got {ONES_80}\n"),
    case("repl-long-command", "repl", stdin=":" + "x" * 3000 + "\n",
         err="error: unknown command ':" + "x" * 78 + "\n"),
]
BY_ID = {case.id: case for case in CASES}
assert len(BY_ID) == len(CASES), "case ids are unique"


def error_text(err: str) -> str:
    """stderr without the argparse usage lines before a usage error."""
    lines = err.splitlines(keepends=True)
    while lines and lines[0].startswith(("usage: excalc ", " ")):
        lines.pop(0)
    return "".join(lines)


def well_formed(code: int, out: str, err: str) -> None:
    """What every run shows: no traceback, stdout empty or ending in a
    newline, and a failure as one error line."""
    assert "Traceback" not in err, err[-2000:]
    assert not out or out.endswith("\n"), f"stdout ends {out[-80:]!r}"
    if code:
        assert err.endswith("\n") and error_text(err).count("\n") == 1, err[:500]


def check(case: Case, code: int, out: str, err: str) -> None:
    """Assert that a run of `case` gave its exit code and its exact output."""
    well_formed(code, out, err)
    assert code == case.code, f"exit {code}, want {case.code}: {err[:300]!r}"
    if case.out_digest:
        assert digest(out) == case.out_digest, f"stdout digest {digest(out)}: {out[:300]!r}"
    else:
        assert out == case.out, f"stdout {out[:300]!r}, want {case.out[:300]!r}"
    if case.err_start:
        assert error_text(err).startswith(case.err_start), f"stderr {err[:300]!r}"
    else:
        assert error_text(err) == case.err, f"stderr {err[:300]!r}, want {case.err[:300]!r}"


def run_in_process(case: Case) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `cli.main(case.argv)` in this process."""
    from excalc import cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin, saved_env = sys.stdin, dict(os.environ)
    sys.stdin = io.StringIO(case.stdin)
    os.environ.update(case.env or {})
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(case.argv)
            except SystemExit as stop:  # argparse's help or usage error
                code = stop.code
    finally:
        sys.stdin = saved_stdin
        os.environ.clear()
        os.environ.update(saved_env)
    return code, out.getvalue(), err.getvalue()


def run_excalc(case: Case) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the `excalc` on PATH, run on `case`."""
    import subprocess

    done = subprocess.run(
        ["excalc", *case.argv], input=case.stdin, capture_output=True, encoding="utf-8",
        env={**os.environ, **(case.env or {})}, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    from concurrent.futures import ThreadPoolExecutor

    def failure(case: Case) -> str:
        try:
            check(case, *run_excalc(case))
        except Exception as fault:  # a failed check, a timeout or no `excalc`
            return f"FAILED {case.id}: {type(fault).__name__}: {fault}"
        return ""

    with ThreadPoolExecutor(max_workers=2) as pool:  # two processes at a time
        failures = [line for line in pool.map(failure, CASES) if line]
    print(*failures, f"{len(CASES) - len(failures)} of {len(CASES)} CLI cases passed", sep="\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
