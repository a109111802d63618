"""Expression language: lexing, parsing, evaluation, printing round trips."""

from __future__ import annotations

import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from excalc import expr
from excalc.errors import ExcalcError, EvalError, ExprSyntaxError, GradeError, IndexRangeError
from excalc.expr import (
    MAX_NESTING,
    Add,
    Blade,
    Conj,
    Environment,
    InnerProduct,
    ScalarLit,
    ScalarMul,
    Star,
    TopBlade,
    Token,
    Vee,
    Wedge,
    evaluate,
    evaluate_text,
    parse,
    parse_text,
    tokenize,
)
from excalc.multivector import (
    PRUNE_TOL,
    Multivector,
    _result,
    basis_vector,
    combine,
    conjugate,
    hodge,
    mv_equal_approx,
    scalar_product,
)
from excalc.extensors import ExtensorFactors
from excalc.qubits import QubitState
from excalc.textform import format_result, scalar_to_text
from excalc.verify import random_mv
from cli_cases import Case, error_text, run_in_process, well_formed
from oracles import hex_terms


def test_tokenize_examples():
    kinds = [(t.kind, t.text) for t in tokenize("e1 ^ e2")]
    assert kinds == [("basis", "e1"), ("op", "^"), ("basis", "e2"), ("end", "")]
    kinds = [(t.kind, t.text) for t in tokenize("*(e2)")]
    assert kinds == [("op", "*"), ("lparen", "("), ("basis", "e2"), ("rparen", ")"), ("end", "")]
    tokens = tokenize("2.5i * E")
    assert tokens[0].kind == "scalar" and tokens[0].value == 2.5j
    assert tokens[1].text == "*" and tokens[2].kind == "top"


def test_tokenize_positions_and_unknown_characters():
    tokens = tokenize("e1 +\n  e2")
    assert (tokens[2].line, tokens[2].col) == (2, 3)
    with pytest.raises(ExprSyntaxError) as err:
        tokenize("e1 $ e2")
    assert err.value.col == 4


def test_identifiers_and_keywords():
    tokens = tokenize("vec v i ip foo")
    assert [t.kind for t in tokens[:-1]] == ["ident", "op", "scalar", "ip", "ident"]


def test_parse_precedence():
    e1, e2, e3 = Blade((1,)), Blade((2,)), Blade((3,))
    node = parse_text("e1 ^ e2 v e3")
    assert node == Vee((Wedge((e1, e2)), e3))
    node = parse_text("*(e1) ^ *(e2)")
    assert node == Wedge((Star(e1), Star(e2)))
    node = parse_text("e1 v e2 + e3")
    assert node == Add(((1, Vee((e1, e2))), (1, e3)))
    node = parse_text("2 * e1 ^ E")
    assert node == Wedge((ScalarMul(2.0 + 0j, e1), TopBlade()))
    assert parse_text("ip(e1, e2)") == InnerProduct(e1, e2)
    assert parse_text("2.5") == ScalarLit(2.5 + 0j)
    # one node per chain, operands in source order; brackets start a new chain
    assert parse_text("e1 ^ e2 ^ e3") == Wedge((e1, e2, e3))
    assert parse_text("e1 ^ (e2 ^ e3)") == Wedge((e1, Wedge((e2, e3))))
    node = parse_text("-e1 + e2 - e3 ^ e1 + e3")
    assert node == Add(
        ((1, ScalarMul(-1.0 + 0j, e1)), (1, e2), (-1, Wedge((e3, e1))), (1, e3))
    )
    assert parse_text("e1 - (e2 - e3)") == Add(((1, e1), (-1, Add(((1, e2), (-1, e3))))))
    # an unspaced run is one leaf; a prefix operator takes its first index,
    # and the rest of the run is the next operand of the chain
    assert parse_text("e1^e2^e3") == Blade((1, 2, 3))
    assert parse_text("e1^e2 v e3") == Vee((Blade((1, 2)), e3))
    assert parse_text("*e1^e2") == Wedge((Star(e1), e2))
    assert parse_text("2 * e1^e3^e2 ^ e1") == Wedge((ScalarMul(2.0 + 0j, e1), Blade((3, 2)), e1))
    assert parse_text("-~e3^e1") == Wedge((ScalarMul(-1.0 + 0j, Conj(e3)), e1))
    assert parse_text("*(e1^e2)") == Star(Blade((1, 2)))


def test_parse_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse_text("e1 ^")
    assert (err.value.line, err.value.col) == (1, 5)
    assert err.value.expected
    with pytest.raises(ExprSyntaxError):
        parse_text("ip(e1 e2)")
    with pytest.raises(ExprSyntaxError):
        parse_text("(e1 ^ e2")
    with pytest.raises(ExprSyntaxError):
        parse_text("")


def test_eval_reference_cases():
    env2 = Environment(2)
    assert evaluate_text("e1 ^ e2", env2) == Multivector.top(2)
    assert evaluate_text("*(e2)", env2) == -basis_vector(2, 1)
    env4 = Environment(4)
    assert evaluate_text("(e1^e2) v (e3^e4^e1)", env4) == basis_vector(4, 1)
    assert evaluate_text("ip(e1, e1)", Environment(3)) == 1.0


def test_eval_scalars_and_conjugation():
    env = Environment(3)
    got = evaluate_text("~(2 * e1 + i * e2)", env)
    want = 2 * basis_vector(3, 1) - 1j * basis_vector(3, 2)
    assert mv_equal_approx(got, want, 1e-12)
    assert evaluate_text("1", env) == Multivector.vacuum(3)
    assert evaluate_text("-E", env) == -Multivector.top(3)
    assert evaluate_text("ip(i * e1, i * e1)", env) == 1.0


def test_eval_errors():
    env = Environment(2)
    with pytest.raises(EvalError):
        evaluate_text("x ^ e1", env)
    with pytest.raises(IndexRangeError):
        evaluate_text("e5", env)
    with pytest.raises(GradeError):
        evaluate_text("ip(e1, E)", env)


def test_environment_bindings():
    env = Environment(2)
    env.bind("x", basis_vector(2, 1) + basis_vector(2, 2))
    assert evaluate_text("x ^ e2", env) == Multivector.top(2)
    with pytest.raises(EvalError):
        env.bind("y", basis_vector(3, 1))


@pytest.mark.parametrize("name", ["E", "v", "i", "ip", "e1", "e02", "x y", " x", "\u00e9", ""])
def test_bind_rejects_a_name_an_expression_cannot_read_back(name):
    env = Environment(2)
    with pytest.raises(EvalError, match=f"cannot bind {re.escape(repr(name))}"):
        env.bind(name, basis_vector(2, 1))
    assert env.bindings == {}


def test_inner_product_usable_inside_expressions():
    env = Environment(2)
    assert evaluate_text("ip(e1, e1) ^ e2", env) == basis_vector(2, 2)
    assert evaluate_text("E + ip(e1, e2)", env) == Multivector.top(2)


def test_format_parse_round_trip_random():
    rng = random.Random(401)
    for _ in range(200):
        d = rng.randint(2, 4)
        value = random_mv(rng, d)
        text = value.to_text()
        again = evaluate(parse_text(text), Environment(d))
        assert isinstance(again, Multivector)
        assert mv_equal_approx(again, value, 1e-10)
        assert again.to_text() == text


# Parts at, just above and below PRUNE_TOL, signed zeros, ordinary values and
# magnitudes up to 1e300.
_EDGE_PARTS = (0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12, 2e-12)
_PARTS = st.one_of(
    st.sampled_from(_EDGE_PARTS),
    st.floats(-2, 2, exclude_min=True, exclude_max=True),
    st.floats(-1e300, 1e300),
)
_ANY_MV = st.integers(1, 10).flatmap(
    lambda d: st.dictionaries(
        st.integers(0, (1 << d) - 1), st.builds(complex, _PARTS, _PARTS), max_size=6
    ).map(lambda terms: Multivector(d, terms))
)


@example(evaluate_text("(e1 + 1e-7 * e2) ^ (e2 + 1e-7i * e1)", Environment(2)))
@settings(max_examples=300)
@given(_ANY_MV)
def test_multivector_text_reads_back_as_itself(value):
    # a part at most PRUNE_TOL prints as 0, since the parser prunes it on its own
    text = format_result(value, "text")
    assert format_result(evaluate_text(text, Environment(value.d)), "text") == text


@st.composite
def ip_sources(draw):
    """(d, "ip(a, b)") for a and b of one step k at d = 1..6, with parts
    whose products stay finite."""
    d = draw(st.integers(1, 6))
    k = draw(st.integers(0, d))
    blades = st.sampled_from([m for m in range(1 << d) if m.bit_count() == k])
    parts = st.one_of(
        st.sampled_from(_EDGE_PARTS),
        st.floats(-2, 2, exclude_min=True, exclude_max=True),
        st.floats(-1e100, 1e100),
    )
    terms = st.dictionaries(blades, st.builds(complex, parts, parts), max_size=4)
    a = Multivector(d, draw(terms))
    b = Multivector(d, draw(terms))
    return d, f"ip({a}, {b})"


@example((2, "ip(e1 + 1e-7i * e2, e1 + 1e-7 * e2)"))
@settings(max_examples=200)
@given(ip_sources())
def test_root_scalar_text_reads_back_as_itself(case):
    d, source = case
    text = format_result(evaluate_text(source, Environment(d)), "text")
    assert format_result(evaluate_text(text, Environment(d)), "text") == text


_ANY_STATE = _ANY_MV.map(lambda a: QubitState(a.d, a.terms()))
_ANY_FACTORS = st.integers(1, 10).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.builds(complex, _PARTS, _PARTS)] * d), max_size=d
    ).map(lambda factors: ExtensorFactors(d, tuple(factors)))
)


@settings(max_examples=100)
@given(st.one_of(_ANY_MV, _ANY_STATE, _ANY_FACTORS))
def test_json_forms_come_back_equal(value):
    data = json.loads(json.dumps(value.to_json()))
    assert type(value).from_json(data) == value


def csv_through_json(value: Multivector) -> str:
    """Oracle: the CSV rows as `format_result` once built them, by re-reading
    the dict of `Multivector.to_json()`."""
    lines = ["blade,re,im"]
    data = value.to_json()
    for term in data["terms"]:
        blade = "^".join(f"e{i}" for i in term["blade"]) or "1"
        lines.append(f"{blade},{term['re']!r},{term['im']!r}")
    return "\n".join(lines)


# as _PARTS, with the next float above PRUNE_TOL and d up to 12
_CSV_PARTS = st.one_of(st.sampled_from((math.nextafter(PRUNE_TOL, 1.0), -0.0)), _PARTS)
_CSV_MV = st.integers(1, 12).flatmap(
    lambda d: st.dictionaries(
        st.integers(0, (1 << d) - 1), st.builds(complex, _CSV_PARTS, _CSV_PARTS), max_size=8
    ).map(lambda terms: Multivector(d, terms))
)


@settings(max_examples=200)
@given(_CSV_MV)
def test_csv_rows_are_the_json_terms_byte_for_byte(value):
    assert format_result(value, "csv") == csv_through_json(value)
    # a qubit state's CSV is its multivector's
    assert format_result(QubitState(value.d, value.terms()), "csv") == csv_through_json(value)


# d = 1..16, the scalar and top blades drawn often, parts at every edge of
# the float format beside ordinary ones; the zero value when no term survives
_JSON_PARTS = st.one_of(
    st.sampled_from((-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0)),
    _PARTS,
)
_JSON_MV = st.integers(1, 16).flatmap(
    lambda d: st.dictionaries(
        st.one_of(st.sampled_from((0, (1 << d) - 1)), st.integers(0, (1 << d) - 1)),
        st.builds(complex, _JSON_PARTS, _JSON_PARTS),
        max_size=8,
    ).map(lambda terms: Multivector(d, terms))
)


@example(Multivector.zero(3))
@example(Multivector.scalar(1, -0.0 + 1e300j))
@example(Multivector.top(16))
@example(Multivector(16, {0b1000_0001_0000_0000: complex(5e-324, -1.0), 0b1_0000_0000: -0.5}))
@settings(max_examples=200)
@given(_JSON_MV)
def test_json_writer_is_json_dumps_byte_for_byte(value):
    assert format_result(value, "json") == json.dumps(value.to_json(), indent=2)
    # a qubit state keeps its own layout
    state = QubitState(value.d, value.terms())
    assert format_result(state, "json") == json.dumps(state.to_json(), indent=2)


def test_qubit_state_csv_is_pinned():
    state = QubitState(2, {1: 1, 2: 2j})
    assert format_result(state, "csv") == "blade,re,im\ne1,1.0,0.0\ne2,0.0,2.0"


@pytest.mark.parametrize("fmt", ["yaml", "", "JSON", None])
@pytest.mark.parametrize("value", [basis_vector(2, 1), QubitState(2, {1: 1}), 1j])
def test_format_result_rejects_an_unknown_format(value, fmt):
    with pytest.raises(ValueError, match=f"^unknown format {re.escape(repr(fmt))}$"):
        format_result(value, fmt)


def test_fuzz_smoke():
    rng = random.Random(402)
    alphabet = "e12 ^v*~+-()E,ip.x\t$#\x00ß"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse_text(text)
        except ExprSyntaxError as err:
            assert err.line >= 1 and err.col >= 1


# Expression text built from the node shapes: runs and basis vectors (e0 and
# e5 are out of range at some drawn --dim), `E`, `1`, a bound name `x` and an
# unbound `y`, then scaled, prefixed, bracketed, summed, multiplied and
# `ip(...)` forms.
_SCALARS = st.sampled_from(["2", "0.5", "1e-13", "3.25i", "i", "1e200", "0"])
_LEAVES = st.one_of(
    st.lists(st.sampled_from([1, 2, 3, 4, 1, 2, 3, 4, 5, 0]), min_size=1, max_size=4).map(
        lambda xs: "^".join(f"e{i}" for i in xs)
    ),
    st.sampled_from(["E", "1", "x", "x", "y"]),
)


def _bracketed(text: str) -> str:
    return f"({text})" if " " in text else text


def _shapes(inner):
    return st.one_of(
        st.tuples(_SCALARS, inner).map(lambda t: f"{t[0]} * {_bracketed(t[1])}"),
        st.tuples(st.sampled_from("*~-"), inner).map(lambda t: t[0] + _bracketed(t[1])),
        inner.map("({})".format),
        st.lists(st.tuples(st.sampled_from(["+", "-"]), inner), min_size=2, max_size=6).map(
            lambda ts: " ".join(f"{sign} {term}" for sign, term in ts)[2:]
        ),
        st.tuples(st.sampled_from([" ^ ", " v "]), st.lists(inner, min_size=2, max_size=3)).map(
            lambda t: t[0].join(map(_bracketed, t[1]))
        ),
        st.tuples(inner, inner).map(lambda t: f"ip({t[0]}, {t[1]})"),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _shapes, max_leaves=12)
# none, or up to three (position, character) pairs: each replaces the
# character at position mod length + 1, or appends one at the end
_MUTATIONS = st.one_of(
    st.just([]),
    st.lists(st.tuples(st.integers(0, 200), st.sampled_from("e1^v*~+-(),Eix .9$")), max_size=3),
)




def _mutated(source: str, mutations) -> str:
    for at, char in mutations:
        at %= len(source) + 1
        source = source[:at] + char + source[at + 1:]
    return source


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 5), st.sampled_from(["text", "json", "csv"]), _EXPRESSIONS, _MUTATIONS)
def test_generated_expressions_end_in_a_value_or_one_error_line(d, fmt, source, mutations):
    source = _mutated(source, mutations)
    x = "x=" + json.dumps({"dim": d, "factors": [[{"re": 1, "im": 0.5}] * d]})
    argv = ["eval", "--dim", str(d), "--format", fmt, "--factors", x, "--", source]
    code, out, err = run_in_process(Case("generated", argv))
    well_formed(code, out, err)
    assert code in (0, 1, 2)


# REPL lines: expressions, with pieces, broken ones, `:let` of them, and each
# command, well formed or not, `:dim` at most 4 so that `:table` stays small
_REPL_LINES = st.one_of(
    _EXPRESSIONS,
    st.tuples(_EXPRESSIONS, _MUTATIONS).map(lambda t: _mutated(*t)),
    st.tuples(st.sampled_from(["x", "y", "x_1", "E", "1x", ""]), _EXPRESSIONS).map(
        lambda t: f":let {t[0]} = {t[1]}"
    ),
    st.sampled_from([":dim 1", ":dim 3", ":dim 4", ":dim", ":dim 0", ":dim 17", ":dim x y",
                     ":dim \u0663", ":table wedge", ":table q-vee", ":table", ":table vee x"]),
    st.sampled_from([":quit", " :quit now", ":bogus", ":", ":let", ":let x", "", " ", "2 *", "$"]),
)
# after each drawn line, one line that answers on stdout and one on stderr
_OUT_MARK, _ERR_MARK = ("mark = 1\n", ":let mark = 1\n"), ("error: unknown command ':mark'\n", ":mark\n")


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.lists(_REPL_LINES, max_size=8))
def test_repl_scripts_answer_each_line_read_once(d, lines):
    script = "".join(line + "\n" + _OUT_MARK[1] + _ERR_MARK[1] for line in lines)
    code, out, err = run_in_process(Case("repl-script", ["repl", "--dim", str(d)], stdin=script))
    well_formed(code, out, err)
    assert code == 0
    read = next((k for k, line in enumerate(lines) if line.split()[:1] == [":quit"]), len(lines))
    outs, errs = out.split(_OUT_MARK[0]), err.split(_ERR_MARK[0])
    assert len(outs) == len(errs) == read + 1 and outs[-1] == errs[-1] == ""
    for line, answer, error in zip(lines[:read], outs, errs):
        if not line.strip():
            assert answer == error == ""
        elif error:  # one error line, and nothing on stdout
            assert answer == "" and error.count("\n") == 1, (line, error)
            assert error.startswith(("error: ", "syntax error: ")), (line, error)
        else:  # one value line, or a table
            assert answer.count("\n") == 1 or line.startswith(":table"), (line, answer)


# ---- output pinned bit for bit ------------------------------------------------------


# `eval` prints `format_result` of these values; its runs of the same sources
# are cases in `cli_cases.CASES`.


def test_cli_eval_text_reads_back_as_itself():
    env = Environment(2)
    text = format_result(evaluate_text("(e1 + 1e-7 * e2) ^ (e2 + 1e-7i * e1)", env), "text")
    assert text == "E"
    assert format_result(evaluate_text(text, env), "text") == text


def test_first_term_keeps_its_negative_zero():
    value = evaluate_text("-i*e1 + e2", Environment(2))
    assert repr(value.coeff((1,))) == "(-0-1j)"


def test_cancelling_sum_is_pruned_after_every_term():
    source = "ip(-0.3 - 0.1 * 1 - i * 1 ^ i * 0.1 ^ ~1 + 0.3 - -i ^ i * i, 0.3)"
    assert scalar_to_text(evaluate_text(source, Environment(3))) == "0.3i"


def test_number_suffix_and_words():
    tokens = tokenize("2in")
    assert [(t.kind, t.text) for t in tokens] == [
        ("scalar", "2"), ("ident", "in"), ("end", "")
    ]
    assert tokens[0].value == 2
    tokens = tokenize("1e5i")
    assert [(t.kind, t.text, t.value) for t in tokens[:-1]] == [("scalar", "1e5i", 1e5j)]
    tokens = tokenize("2i*e01 ip_ E")
    assert [(t.kind, t.value, t.index) for t in tokens[:-1]] == [
        ("piece", 2j, (1,)), ("ident", 0j, 0), ("top", 0j, 0)
    ]
    # a number is ASCII digits only: an Arabic-Indic three ends it
    with pytest.raises(ExprSyntaxError, match="unknown character '٣' at 1:2"):
        tokenize("1٣")


@pytest.mark.parametrize(
    "source, col",
    [("1e400*e1", 1), ("e1 + 1e400i", 6), ("e2 - 1.8e308 * e1", 6), ("9" * 400 + "i", 1)],
    ids=["exponent", "imaginary", "mantissa", "400-digits"],
)
def test_a_literal_beyond_the_float_range_is_a_syntax_error_at_the_literal(source, col):
    with pytest.raises(ExprSyntaxError) as err:
        tokenize(source)
    assert (err.value.line, err.value.col) == (1, col)
    assert "overflows" in str(err.value)


def test_cli_overflowing_literal_exits_2_at_its_column():
    with pytest.raises(ExprSyntaxError, match=r"^number '1e400' overflows at 1:1$"):
        evaluate_text("1e400*e1", Environment(3))
    # the largest finite literal and an underflow to zero still evaluate
    value = evaluate_text("1.7e308*e1 + 1e-400i", Environment(3))
    assert format_result(value, "text") == "1.7e+308 * e1"


def test_token_positions_across_tabs_and_crlf():
    tokens = tokenize("e1\t+\r\n  e2")
    assert [(t.kind, t.line, t.col) for t in tokens] == [
        ("basis", 1, 1), ("op", 1, 4), ("basis", 2, 3), ("end", 2, 5)
    ]


def test_unknown_character_position_on_a_later_line():
    with pytest.raises(ExprSyntaxError) as err:
        tokenize("e1 +\n e2 ^ e3 ? e1")
    assert (err.value.line, err.value.col) == (2, 10)
    assert str(err.value) == "unknown character '?' at 2:10"


# Coefficients that cancel to exact zeros, to signed zeros and to values
# below the pruning tolerance.
_COEFFS = st.builds(
    complex,
    st.sampled_from([0.1, 0.2, 0.3, -0.1, -0.3, 0.0, -0.0, 1e-13, -1e-13, 0.7]),
    st.sampled_from([0.0, -0.0, 0.1, -0.2, 1e-13]),
)


def _mvs(d):
    return st.dictionaries(st.integers(0, (1 << d) - 1), _COEFFS, max_size=4).map(
        lambda terms: Multivector(d, terms)
    )


def _signed_terms(d):
    return st.lists(st.tuples(st.sampled_from([1, -1]), _mvs(d)), min_size=1, max_size=30)


def _reference_add(acc: Multivector, sign: int, term: Multivector) -> Multivector:
    """One binary step as `+` and `-` have always computed it."""
    out = acc.terms()
    for m, c in term:
        out[m] = out.get(m, 0j) + (c if sign > 0 else -c)
    return Multivector(acc.d, out)


def _exact(value: Multivector) -> list:
    return [(m, repr(c)) for m, c in value]


def _negative_zero_case(d):
    """x - y where only -c, not -1 * c, keeps the -0.0 imaginary part of x."""
    return [(1, Multivector(d, {1: complex(0.1, -0.0)})), (-1, Multivector(d, {1: 0.2}))]


@example(_negative_zero_case(2))
@given(_signed_terms(2))
def test_sum_chain_equals_a_fold_of_binary_adds(items):
    env = Environment(2)
    pieces = []
    for k, (sign, term) in enumerate(items):
        env.bind(f"x{k}", term)
        pieces.append(("+ " if sign > 0 else "- ") + f"x{k}")
    source = " ".join(pieces)[2:]  # the first term's sign is not used
    want = items[0][1]
    for sign, term in items[1:]:
        want = _reference_add(want, sign, term)
    assert _exact(evaluate_text(source, env)) == _exact(want)


@example(_negative_zero_case(3))
@given(_signed_terms(3))
def test_nary_sum_and_binary_operators_equal_the_reference_fold(items):
    first, rest = items[0][1], items[1:]
    want = first
    for sign, term in rest:
        step = want + term if sign > 0 else want - term
        want = _reference_add(want, sign, term)
        assert _exact(step) == _exact(want)
    assert _exact(combine(first, rest)) == _exact(want)


def test_nary_sum_stops_at_the_first_non_finite_term():
    big = Multivector(2, {1: 1e308})

    def rest():
        yield 1, big
        raise AssertionError("drew a term after the overflow")

    with pytest.raises(ValueError, match="non-finite"):
        combine(big, rest())


# ---- chains of any length, nesting up to MAX_NESTING ------------------------------------

ONE = Multivector.vacuum(3)

# Each opener wraps an expression one nesting level deeper: its text before
# and after the operand, the offset of the token that counts, and what it does.
_OPENERS = {
    "(": ("(", ")", 0, lambda x: x),
    "ip(": ("ip(", ", 1)", 0, lambda x: Multivector.scalar(3, scalar_product(x, ONE))),
    "*": ("*", "", 0, hodge),
    "~": ("~", "", 0, conjugate),
    "-": ("-", "", 0, lambda x: -1 * x),
    "0.5 *": ("0.5 * ", "", 4, lambda x: 0.5 * x),
}
# Inside out from the vacuum, a cycle that keeps ip's operand a scalar.
_MIX = ("(", "-", "~", "*", "*", "ip(", "0.5 *", "~")


def _nested(kinds):
    """Source of 1 wrapped in kinds (outermost first), its value, and the
    column of the innermost opener."""
    value = ONE
    for kind in reversed(kinds):
        value = _OPENERS[kind][3](value)
    before = "".join(_OPENERS[k][0] for k in kinds)
    after = "".join(_OPENERS[k][1] for k in reversed(kinds))
    col = len(before) - len(_OPENERS[kinds[-1]][0]) + _OPENERS[kinds[-1]][2] + 1
    return before + "1" + after, value, col


def _kinds(kind, depth):
    """Openers outermost first; "mix" cycles through _MIX from the inside."""
    if kind != "mix":
        return [kind] * depth
    return [_MIX[k % len(_MIX)] for k in range(depth)][::-1]


@pytest.mark.parametrize("kind", [*_OPENERS, "mix"])
def test_nesting_up_to_the_limit_evaluates(kind):
    kinds = _kinds(kind, MAX_NESTING)
    source, want, _ = _nested(kinds)
    got = evaluate_text(source, Environment(3))
    if not isinstance(got, Multivector):
        got = Multivector.scalar(3, got)
    assert mv_equal_approx(got, want, 1e-12)


@pytest.mark.parametrize("kind", [*_OPENERS, "mix"])
def test_nesting_past_the_limit_is_a_syntax_error_at_the_crossing_token(kind):
    kinds = _kinds(kind, MAX_NESTING + 1)
    source, _, col = _nested(kinds)
    with pytest.raises(ExprSyntaxError) as err:
        parse_text(source)
    assert str(err.value) == f"nesting deeper than {MAX_NESTING} at 1:{col}"


def test_nesting_is_counted_per_open_bracket_not_per_input():
    # siblings do not add up: 200 depth-100 groups in one sum are fine
    group = "(" * MAX_NESTING + "e1" + ")" * MAX_NESTING
    value = evaluate_text(" + ".join([group] * 200), Environment(3))
    assert value == 200.0 * basis_vector(3, 1)
    value = evaluate_text(" - ".join(["-" * 99 + "e1"] * 200), Environment(3))
    assert value == 198.0 * basis_vector(3, 1)


@pytest.mark.parametrize(
    "source, want",
    [
        (" + ".join(["e1"] * 5000), 5000.0 * basis_vector(3, 1)),
        ("^".join(["1"] * 4999 + ["e2"]), basis_vector(3, 2)),
        (" v ".join(["E"] * 4999 + ["e3"]), basis_vector(3, 3)),
        ("-".join(["e1"] * 4999 + ["e2"]), -4997.0 * basis_vector(3, 1) - basis_vector(3, 2)),
    ],
    ids=["add", "wedge", "vee", "sub"],
)
def test_chains_of_5000_operands_evaluate(source, want):
    assert evaluate_text(source, Environment(3)) == want


def test_hostile_inputs_end_in_a_value_or_a_positioned_syntax_error():
    for source in ("(" * 3000 + "e1" + ")" * 3000, "*" * 5000 + "e1"):
        with pytest.raises(ExprSyntaxError, match=r"^nesting deeper than 100 at 1:101$"):
            evaluate_text(source, Environment(3))
    value = evaluate_text("+".join(["e1"] * 5000), Environment(3))
    assert format_result(value, "text") == "5000 * e1"


# A run of 4000-6000 digits or identifier characters, placed as the --dim
# value, or in the expression as an index, a literal, a name or after an
# operator, or followed by a letter, is longer than Python's 4300-digit limit
# for int() and longer than any sensible echo.  So is one that argparse
# quotes: a subcommand, an `--op` choice or an extra argument.  A place is an
# argv whose `{}` takes the run, and the most bytes its error line may have:
# argparse's line after a bad choice lists the choices as well.
_LONG_RUN_PLACES = [(["eval", "--dim", "{}", "--", "e1"], 200)] + [
    (["eval", "--dim", "3", "--", source], 200) for source in (
        "{}", "e{}", "{} * e1", "{}i", "1e{}", "0.{}", "e1 ^ {}", "e1 + {}", "e1 v {}", "*{}",
        "~{}", "e1 {}", "ip({}, e1)", "({}", "e{}x", "{}_",
    )
] + [
    (["{}"], 200),
    (["table", "--op", "{}", "--dim", "2"], 240),
    (["eval", "--dim", "3", "e1", "{}"], 200),
]


@st.composite
def _long_run_sources(draw):
    alphabet = draw(st.sampled_from(["0123456789", "0123456789_abceixyzEv"]))
    piece = draw(st.text(alphabet, min_size=1, max_size=6))
    length = draw(st.integers(4000, 6000))
    run = (piece * (length // len(piece) + 1))[:length]
    argv, bound = draw(st.sampled_from(_LONG_RUN_PLACES))
    return [word.format(run) for word in argv], bound


@example((["eval", "--dim", "3", "--", "e" + "1" * 5000], 200))
@example((["eval", "--dim", "3", "--", "e" + "0" * 5000 + "x"], 200))
@example((["eval", "--dim", "3", "--", "x" * 5000], 200))
@example((["eval", "--dim", "1" * 3000, "--", "e1"], 200))
@example((["eval", "--dim", "x" * 5000, "--", "e1"], 200))
@example((["x" * 5000], 200))
@example((["table", "--op", "x" * 5000, "--dim", "2"], 240))
@example((["eval", "--dim", "3", "e1", "1" * 5000], 200))
@given(_long_run_sources())
def test_long_runs_end_in_a_value_or_one_short_error_line(place):
    argv, bound = place
    code, out, err = run_in_process(Case("long-run", argv))
    well_formed(code, out, err)
    assert code in (0, 1, 2)
    # the error line, after any argparse usage lines
    assert code == 0 or len(error_text(err).encode()) <= bound, err[:300]


_LEAVES = ("e1", "e2", "e3", "E", "1", "i", "0.5", "x", "e9", "ip(e1, e2)")
_WRAPS = ("({})", "*{}", "~{}", "-{}", "0.5 * {}", "ip({}, e1)", "ip(1, {})")
_JOINS = (" + ", " - ", " ^ ", " v ", "+", "-", "^")


@st.composite
def _long_or_deep(draw, depth=3, size=40000):
    """Chains and runs of up to 130 nested wrappers, in about `size` characters."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(_LEAVES))
    child = draw(_long_or_deep(depth - 1, size))
    if draw(st.booleans()):
        wrap = draw(st.sampled_from(_WRAPS))
        for _ in range(draw(st.integers(1, 130))):
            child = wrap.format(child)
        return child
    n = draw(st.integers(2, max(2, size // (len(child) + 2))))
    last = draw(_long_or_deep(depth - 1, size // n))
    return draw(st.sampled_from(_JOINS)).join([child] * (n - 1) + [last])


@settings(max_examples=30)
@given(_long_or_deep())
def test_long_and_deep_inputs_raise_only_typed_errors(source):
    env = Environment(3)
    try:
        value = evaluate_text(source, env)
    except ExprSyntaxError as err:
        assert err.line == 1 and 1 <= err.col <= len(source) + 1
    except ExcalcError:
        pass
    else:
        assert isinstance(value, (Multivector, complex))


_SEPARATED = st.lists(
    st.tuples(st.sampled_from(_LEAVES + ("^", "+", "v", "2.5i", "1e5", "(", "*", "i")),
              st.sampled_from(("\t", "\r\n", "\n", " ", " \t\r\n")))
).map(lambda pairs: "".join(word + sep for word, sep in pairs))


@settings(max_examples=60)
@given(st.one_of(_long_or_deep(size=2000), _SEPARATED))
def test_every_token_is_a_whole_token(source):
    for t in tokenize(source):
        assert type(t) is Token and t == Token(*t)
        assert type(t.value) is complex
        assert type(t.index) is (tuple if t.kind in ("basis", "piece") else int)


# ---- one match per token, one node and one value per basis leaf ------------------------

# The lexer as it was before the blanks were lexed with the next token,
# before a run of basis indices was one token and before a scaled run was
# one piece: one match per token and one per run of blanks, one token per
# index, kept as the oracle.  `run_tokenize` merges its runs and
# `piece_tokenize` then its pieces.
_PARENT_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<space>[^\S\n]+)"
    r"|(?P<scalar>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?(?P<imag>i(?![A-Za-z0-9_]))?)"
    r"|(?P<basis>e(?P<index>[0-9]+)(?![A-Za-z0-9_]))|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+^*~])|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|(?P<unknown>.)"
)
_PARENT_KEYWORDS = {"E": ("top", 0j), "v": ("op", 0j), "i": ("scalar", 1j), "ip": ("ip", 0j)}


def parent_tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__
    line, line_start = 1, 0
    for m in _PARENT_TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "space":
            continue
        text = m[0]
        col = m.start() - line_start + 1
        if kind == "basis":
            append(new(Token, (kind, text, line, col, 0j, int(m["index"]))))
        elif kind == "scalar":
            number = float(text[:-1] if m["imag"] else text)
            if math.isinf(number):
                raise ExprSyntaxError(f"number {text!r} overflows", line, col)
            value = complex(0.0, number) if m["imag"] else complex(number)
            append(new(Token, (kind, text, line, col, value, 0)))
        elif kind == "word":
            kind, value = _PARENT_KEYWORDS.get(text, ("ident", 0j))
            append(new(Token, (kind, text, line, col, value, 0)))
        elif kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "unknown":
            raise ExprSyntaxError(f"unknown character {text!r}", line, col)
        else:  # op, lparen, rparen, comma
            append(new(Token, (kind, text, line, col, 0j, 0)))
    append(Token("end", "", line, len(source) - line_start + 1))
    return tokens


def run_tokenize(source: str) -> list[Token]:
    """parent_tokenize, then each `basis ^ basis` with nothing between the
    three merged into one basis token, text joined and index tuples added."""
    tokens: list[Token] = []
    for t in parent_tokenize(source):
        if t.kind == "basis":
            t = t._replace(index=(t.index,))
            if len(tokens) > 1 and tokens[-1].text == "^" and tokens[-2].kind == "basis":
                caret, run = tokens[-1], tokens[-2]
                if (run.line, run.col + len(run.text) + 1) == (caret.line, caret.col + 1) == (
                    t.line, t.col
                ):
                    del tokens[-2:]
                    t = run._replace(text=f"{run.text}^{t.text}", index=run.index + t.index)
        tokens.append(t)
    return tokens


def piece_tokenize(source: str) -> list[Token]:
    """run_tokenize, then each `scalar * basis` triple on one line merged into
    one piece token: the scalar's position and value, the basis token's
    index tuple, and the source text from the scalar to the end of the run."""
    line_starts = [0] + [k + 1 for k, c in enumerate(source) if c == "\n"]
    tokens: list[Token] = []
    for t in run_tokenize(source):
        if t.kind == "basis" and len(tokens) > 1 and tokens[-1].text == "*":
            star, number = tokens[-1], tokens[-2]
            if number.kind == "scalar" and number.line == star.line == t.line:
                del tokens[-2:]
                start = line_starts[t.line - 1] - 1
                text = source[start + number.col:start + t.col + len(t.text)]
                t = Token("piece", text, number.line, number.col, number.value, t.index)
        tokens.append(t)
    return tokens


def _lexed(lex, source: str):
    """The Token list with each field's repr (so 0j and 0 differ), or the error."""
    try:
        return [tuple(map(repr, t)) for t in lex(source)]
    except ExprSyntaxError as err:
        return ("error", str(err), err.line, err.col)


_LEXER_PIECES = st.sampled_from(
    [*"eEiv_xp0123456789.+-^*~(),", " ", "\t", "\r", "\n", "$", "٣",
     "e1", "e12", "ip", "1e5", "2.5i", "1.5e-3i", "1e400", "e1x", "vee", "x_1", "^e3", "e2^e1",
     " * ", "2*", "i *\t", "0.5i * e2^e3"]
)


@settings(max_examples=300)
@example("e1 ^ e2 \t\r\n  ")
@example("e1 +\n\t $ e2")
@example(" \t")
@example("e1^e02^e3 ^e4^ e5^e6x^e7\n^e8")
@example("2 * e1 2i*e2^e3\ti \t*\te4 2 *\ne5 3 * e6x 4\r*e7^e8^ 2in * e1 x * e1 2 * E")
@given(st.lists(_LEXER_PIECES, max_size=30).map("".join))
def test_tokenize_equals_the_one_match_per_gap_lexer(source):
    assert _lexed(tokenize, source) == _lexed(piece_tokenize, source)


def _parsed(lex, source: str):
    """The tree that `parse` builds from the tokens of `lex` as its repr, or the error."""
    try:
        return repr(parse(lex(source)))
    except ExprSyntaxError as err:
        return ("error", str(err), err.line, err.col)


@st.composite
def _spaced_text(draw):
    """The text of a value at d <= 16, as it prints, with the blanks around
    each `*` drawn anew: none, tabs, or a newline that splits a piece."""
    d = draw(st.integers(1, 16))
    terms = st.dictionaries(st.integers(0, (1 << d) - 1), st.builds(complex, _PARTS, _PARTS),
                            max_size=8)
    first, *rest = Multivector(d, draw(terms)).to_text().split(" * ")
    blanks = st.sampled_from(["", " ", " ", "\t", " \t ", "\r", "\n", " \n "])
    return first + "".join(f"{draw(blanks)}*{draw(blanks)}{term}" for term in rest)


# a piece where a term may not start; one past the nesting limit, one level in
@example("e1 2 * e3", [])
@example("(" * MAX_NESTING + "2 * e1" + ")" * MAX_NESTING, [])
@example("-" * (MAX_NESTING - 1) + "0.5i * e1^e2^e3", [])
@example("*" * MAX_NESTING + "i*e1", [])
@example("1e999 * e1", [])
@settings(max_examples=200)
@given(st.one_of(_EXPRESSIONS, _spaced_text()), _MUTATIONS)
def test_a_piece_parses_as_its_three_tokens(source, mutations):
    source = _mutated(source, mutations)
    assert _parsed(tokenize, source) == _parsed(run_tokenize, source)


def test_one_parse_builds_one_basis_node_per_index(monkeypatch):
    built = []

    class CountedBlade(Blade):
        def __init__(self, indices):
            built.append(indices)
            super().__init__(indices)

    monkeypatch.setattr(expr, "Blade", CountedBlade)
    source = "e1 ^ e2 + 2 * e1 ^ e3 - (e2 v e1) + ip(e3, e3) + e1^e2 - *e3^e1^e2 + e1^e2"
    node = parse_text(source)
    # the prefixed run builds (3,) and (1, 2), the index tuples seen before
    assert sorted(built) == [(1,), (1, 2), (2,), (3,)]
    first, second = node.terms[0][1].operands[0], node.terms[1][1].operands[0].operand
    assert first is second
    assert node.terms[4][1] is node.terms[5][1].operands[1] is node.terms[6][1]
    parse_text(source)  # the nodes live for one parse only
    assert sorted(built) == [(1,), (1,), (1, 2), (1, 2), (2,), (2,), (3,), (3,)]


def test_a_basis_leaf_evaluates_to_the_cached_basis_vector():
    assert evaluate(parse_text("e2"), Environment(3)) is basis_vector(3, 2)


def test_a_leaf_out_of_range_adds_no_cached_value():
    before = basis_vector.cache_info().currsize
    with pytest.raises(IndexRangeError, match="^e9 does not exist in dimension 3$"):
        evaluate_text("e1 + e9", Environment(3))
    assert basis_vector.cache_info().currsize == before


_COEFFS = st.one_of(
    st.sampled_from(["0.5", "2", "1e-7", "1e-13", "1e10", "1e200", "3.25i"]),
    st.floats(0, 1e300, allow_nan=False, allow_infinity=False).map(repr),
)
# a factor of a wedge chain at d=4: a basis vector, e5 out of range, a scaled
# or prefixed one, a sum of several, which makes the chain a product of values,
# or the bound name `x`, one value of two terms
_FACTORS = st.one_of(
    st.integers(1, 5).map("e{}".format),
    st.just("x"),
    st.tuples(_COEFFS, st.integers(1, 5)).map("{0[0]} * e{0[1]}".format),
    st.tuples(st.sampled_from(["*", "~", "-", "2i * "]), st.integers(1, 5)).map("{0[0]}e{0[1]}".format),
    st.lists(st.integers(1, 4), min_size=2, max_size=3).map(
        lambda xs: "(" + " + ".join(f"e{i}" for i in xs) + ")"
    ),
)
# (sign, coefficient or "" for none, factors, the join: spaced, or a run)
_BLADE_TERMS = st.tuples(
    st.sampled_from([" + ", " - "]), st.one_of(st.just(""), _COEFFS),
    st.lists(_FACTORS, min_size=1, max_size=4), st.sampled_from([" ^ ", "^"]),
)


def _outcome(source: str, env: Environment):
    try:
        return hex_terms(evaluate_text(source, env))
    except (ValueError, ExcalcError) as err:  # a non-finite coefficient, an index out of range
        return (type(err).__name__, str(err))


# pruned mid-chain; an overflow before a later leaf's range error; a repeated index
@example([(" + ", "1", ["1e-7 * e1", "1e-7 * e2", "1e10 * e3"], " ^ ")])
@example([(" + ", "1e-13", ["e1", "e2"], " ^ "), (" - ", "1", ["e3", "1e-13 * e4"], " ^ ")])
@example([(" + ", "1e200", ["e1", "1e200 * e2", "e5"], " ^ ")])
@example([(" + ", "2", ["e1", "3.25i * e2", "e1", "e5"], " ^ ")])
@example([(" + ", "0.5", ["e1", "(e2 + e3)", "e4"], " ^ "), (" + ", "2", ["(e1 + e1)", "e2"], " ^ ")])
# -1 * 3.25i * 3.25i has a -0.0 imaginary part, which the kernel's 0j + clears
@example([(" + ", "3.25i", ["e2", "3.25i * e1"], " ^ ")])
# runs: a prefix operator takes the first index only, so `2i * e2^e1` has a
# real part of 0.0, where `2i * (e2^e1)` has -0.0; a repeated index before e5
@example([(" + ", "", ["*e1", "e2"], "^")])
@example([(" + ", "2i", ["e2", "e1"], "^")])
@example([(" + ", "", ["-e3", "e1"], "^"), (" - ", "", ["e4", "e2", "e1"], "^")])
@example([(" + ", "", ["e1", "e1", "e5"], "^")])
@example([(" - ", "1e200", ["e4", "e2", "1e200 * e1", "e3"], "^")])
# a pruned term mid-sum, on a blade already summed or before a range error;
# an overflow in a first term or after a repeated index; a first term in
# brackets, or negated; a bound name among one-term terms
@example([(" + ", "", ["e1"], "^"), (" + ", "1e-13", ["e1"], "^"), (" - ", "", ["e2"], "^")])
@example([(" + ", "", ["e2"], "^"), (" + ", "1e-13", ["e1"], "^"), (" - ", "", ["e5"], "^")])
@example([(" + ", "1e200", ["1e200 * e1"], "^"), (" + ", "", ["e2"], "^")])
@example([(" + ", "", ["e3", "e1", "e3"], "^"), (" - ", "1e200", ["1e200 * e2"], "^")])
@example([(" + ", "", ["(e1 + e3)"], "^"), (" - ", "", ["e1"], "^"), (" + ", "2", ["e2"], "^")])
@example([(" + ", "", ["-e1"], "^"), (" + ", "", ["e2"], "^"), (" - ", "", ["-e1"], "^")])
@example([(" + ", "", ["e1"], "^"), (" - ", "2", ["x"], "^"), (" + ", "0.5", ["e2", "e3"], "^")])
@settings(max_examples=150)
@given(st.lists(_BLADE_TERMS, min_size=1, max_size=12))
def test_cached_leaves_evaluate_like_leaves_built_per_use(terms):
    source = "".join(
        f"{sign}{coeff}{' * ' if coeff else ''}{join.join(factors)}"
        for sign, coeff, factors, join in terms
    )[3:]
    # every eN in brackets: one token, one leaf and one value per index
    split = re.sub(r"(?<![0-9.])e[0-9]+", r"(\g<0>)", source)
    env = Environment(4)
    env.bind("x", Multivector(4, {0b0001: 0.5 + 0j, 0b0110: -2j}))
    got = _outcome(source, env)
    assert got == _outcome(split, env)
    with pytest.MonkeyPatch.context() as patch:
        # the oracle builds every eN leaf anew through the kernels' `_result`
        # and takes no one-term pair: it scales with `Multivector.__mul__`,
        # multiplies every wedge chain out as the binary chain of `wedge` and
        # adds the values of a sum's terms by `combine`'s rule
        patch.setattr(expr, "basis_vector", lambda d, i: _result(d, {1 << (i - 1): 1 + 0j}))
        patch.setattr(expr, "_one_term", lambda node, d: None)
        assert got == _outcome(source, env) == _outcome(split, env)
