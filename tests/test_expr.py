"""Expression language: lexing, parsing, evaluation, printing round trips."""

from __future__ import annotations

import json
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_mv
from excalc.errors import ExcalcError, EvalError, ExprSyntaxError, GradeError, IndexRangeError
from excalc.expr import (
    MAX_NESTING,
    Add,
    BasisVector,
    Environment,
    InnerProduct,
    ScalarLit,
    ScalarMul,
    Star,
    TopBlade,
    Vee,
    Wedge,
    evaluate,
    evaluate_text,
    parse_text,
    tokenize,
)
from excalc.multivector import (
    Multivector,
    basis_vector,
    combine,
    conjugate,
    hodge,
    mv_equal_approx,
    scalar_product,
)
from excalc.textform import scalar_to_text


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
    e1, e2, e3 = BasisVector(1), BasisVector(2), BasisVector(3)
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


def test_fuzz_smoke():
    rng = random.Random(402)
    alphabet = "e12 ^v*~+-()E,ip.x\t$#\x00ß"
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse_text(text)
        except ExprSyntaxError as err:
            assert err.line >= 1 and err.col >= 1


# ---- output pinned bit for bit ------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "excalc.cli", *args], capture_output=True, text=True
    )


def test_first_term_keeps_its_negative_zero():
    value = evaluate_text("-i*e1 + e2", Environment(2))
    assert repr(value.coeff((1,))) == "(-0-1j)"
    done = run_cli("eval", "--dim", "2", "--format", "json", "-i*e1 + e2")
    assert done.returncode == 0
    assert '"re": -0.0' in done.stdout
    assert json.loads(done.stdout)["terms"][0] == {"blade": [1], "re": -0.0, "im": -1.0}


def test_cancelling_sum_is_pruned_after_every_term():
    source = "ip(-0.3 - 0.1 * 1 - i * 1 ^ i * 0.1 ^ ~1 + 0.3 - -i ^ i * i, 0.3)"
    assert scalar_to_text(evaluate_text(source, Environment(3))) == "0.3i"
    done = run_cli("eval", "--dim", "3", source)
    assert done.returncode == 0 and done.stdout == "0.3i\n"


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
        ("scalar", 2j, 0), ("op", 0j, 0), ("basis", 0j, 1), ("ident", 0j, 0), ("top", 0j, 0)
    ]
    # digits after the leading ASCII one may be any decimal digit
    assert tokenize("1٣")[0].value == 13


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
    cases = [
        ("(" * 3000 + "e1" + ")" * 3000, 2, "syntax error: nesting deeper than 100 at 1:101"),
        ("+".join(["e1"] * 5000), 0, "5000 * e1"),
        ("*" * 5000 + "e1", 2, "syntax error: nesting deeper than 100 at 1:101"),
    ]
    for source, code, out in cases:
        done = run_cli("eval", "--dim", "3", "--", source)
        assert "Traceback" not in done.stderr
        assert done.returncode == code
        assert (done.stdout if code == 0 else done.stderr).strip() == out


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
