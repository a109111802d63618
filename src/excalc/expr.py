"""Expression language over the algebra: lexer, parser, evaluator.

Surface syntax: `^` wedge, `v` vee, prefix `*` star complement, prefix `~`
conjugation, `+`/`-` sums, `E` top blade, `1` vacuum scalar, `i` the imaginary
unit, numeric literals with optional `i` suffix, `scalar * expr` scaling,
`ip(a, b)` scalar product, names bound in an environment.  Precedence from
tightest: prefix operators, `^`, `v`, then `+`/`-`; the binary products are
left associative and prefix operators take an atomic or parenthesized operand.

A chain of one operator is one n-ary node (`Wedge`, `Vee`, or `Add` with a
sign per term), so chains of any length parse and evaluate in constant stack
depth.  Nesting is what costs stack: at most MAX_NESTING open `(`, `ip(` and
prefix operators (`*`, `~`, `-` and the `*` of `scalar *`), beyond which the
parser raises ExprSyntaxError at the token that crosses the limit.  A
numeric literal beyond the float range raises it at the literal.

Tokens are named tuples and the tree nodes plain value classes: nodes with
equal fields are equal and hash alike, and nothing assigns to a node once
the parser has built it.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from functools import partial, reduce

from .errors import EvalError, ExprSyntaxError, IndexRangeError
from .multivector import (
    Multivector,
    _result,
    _Value,
    check_dim,
    combine,
    conjugate,
    hodge,
    scalar_product,
    vee,
    wedge,
)

MAX_NESTING = 100

# ---- tokens -------------------------------------------------------------------

# One alternative per token class, tried in order.  A number starts with an
# ASCII digit and takes an `i` suffix only when that `i` ends the word.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<space>[^\S\n]+)"
    r"|(?P<scalar>[0-9]\d*(?:\.\d+)?(?:[eE][+-]?\d+)?(?P<imag>i(?![A-Za-z0-9_]))?)"
    r"|(?P<basis>e(?P<index>[0-9]+)(?![A-Za-z0-9_]))|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+^*~])|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|(?P<unknown>.)"
)
_KEYWORDS = {"E": ("top", 0j), "v": ("op", 0j), "i": ("scalar", 1j), "ip": ("ip", 0j)}


# kind: basis | top | scalar | op | lparen | rparen | comma | ident | ip | end
Token = namedtuple("Token", "kind text line col value index", defaults=(0j, 0))


def tokenize(source: str) -> list[Token]:
    """Longest-match lexing; raises ExprSyntaxError on any unknown character."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind, text = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "space":
            pass
        elif kind == "unknown":
            raise ExprSyntaxError(f"unknown character {text!r}", line, col)
        elif kind == "scalar":
            number = float(text[:-1] if m["imag"] else text)
            if math.isinf(number):
                raise ExprSyntaxError(f"number {text!r} overflows", line, col)
            value = complex(0.0, number) if m["imag"] else complex(number)
            tokens.append(Token(kind, text, line, col, value=value))
        elif kind == "basis":
            tokens.append(Token(kind, text, line, col, index=int(m["index"])))
        elif kind == "word":
            kind, value = _KEYWORDS.get(text, ("ident", 0j))
            tokens.append(Token(kind, text, line, col, value=value))
        else:
            tokens.append(Token(kind, text, line, col))
    tokens.append(Token("end", "", line, len(source) - line_start + 1))
    return tokens


# ---- syntax tree ----------------------------------------------------------------
# Each node class lists its fields in __match_args__, which _Value compares,
# hashes and prints.


class BasisVector(_Value):
    __match_args__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class TopBlade(_Value):
    pass


class ScalarLit(_Value):
    __match_args__ = ("value",)

    def __init__(self, value: complex):
        self.value = value


class Var(_Value):
    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Wedge(_Value):
    __match_args__ = ("operands",)

    def __init__(self, operands: tuple):
        self.operands = operands  # two or more, folded left to right


class Vee(_Value):
    __match_args__ = ("operands",)

    def __init__(self, operands: tuple):
        self.operands = operands  # two or more, folded left to right


class Star(_Value):
    __match_args__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand


class Conj(_Value):
    __match_args__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand


class Add(_Value):
    __match_args__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms  # (sign, node) pairs, two or more; the first sign is +1


class ScalarMul(_Value):
    __match_args__ = ("coeff", "operand")

    def __init__(self, coeff: complex, operand):
        self.coeff = coeff
        self.operand = operand


class InnerProduct(_Value):
    __match_args__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


_PREFIX = {"*": Star, "~": Conj, "-": partial(ScalarMul, -1.0 + 0j)}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open `(`, `ip(` and prefix operators

    @property
    def here(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.here
        what = "end of input" if tok.kind == "end" else f"{tok.text!r}"
        raise ExprSyntaxError(f"unexpected {what}", tok.line, tok.col, expected)

    def expect(self, kind: str, expected: tuple[str, ...]) -> Token:
        if self.here.kind != kind:
            self.fail(expected)
        return self.advance()

    def parse(self):
        node = self.sum()
        if self.here.kind != "end":
            self.fail(("operator", "end of input"))
        return node

    def at(self, ops: str) -> bool:
        return self.here.kind == "op" and self.here.text in ops

    def deeper(self) -> None:
        """Consume an opening token one nesting level down."""
        tok = self.advance()
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING}", tok.line, tok.col)
        self.depth += 1

    def sum(self):
        terms = [(1, self.chain(self.wedgeterm, "v", Vee))]
        while self.at("+-"):
            sign = 1 if self.advance().text == "+" else -1
            terms.append((sign, self.chain(self.wedgeterm, "v", Vee)))
        return Add(tuple(terms)) if len(terms) > 1 else terms[0][1]

    def wedgeterm(self):
        return self.chain(self.unary, "^", Wedge)

    def chain(self, operand, op: str, node):
        operands = [operand()]
        while self.at(op):
            self.advance()
            operands.append(operand())
        return node(tuple(operands)) if len(operands) > 1 else operands[0]

    def unary(self):
        if self.at("*~-"):
            wrap = _PREFIX[self.here.text]
        elif self.here.kind == "scalar":
            coeff = self.advance().value
            if not self.at("*"):
                return ScalarLit(coeff)
            wrap = partial(ScalarMul, coeff)
        else:
            return self.atom()
        self.deeper()
        operand = self.unary()
        self.depth -= 1
        return wrap(operand)

    def atom(self):
        tok = self.here
        if tok.kind == "basis":
            self.advance()
            return BasisVector(tok.index)
        if tok.kind == "top":
            self.advance()
            return TopBlade()
        if tok.kind == "ident":
            self.advance()
            return Var(tok.text)
        if tok.kind == "ip":
            self.deeper()
            self.expect("lparen", ("(",))
            left = self.sum()
            self.expect("comma", (",",))
            right = self.sum()
            self.expect("rparen", (")",))
            self.depth -= 1
            return InnerProduct(left, right)
        if tok.kind == "lparen":
            self.deeper()
            node = self.sum()
            self.expect("rparen", (")",))
            self.depth -= 1
            return node
        self.fail(("basis vector", "E", "scalar", "name", "ip(", "("))


def parse(tokens: list[Token]):
    return _Parser(tokens).parse()


def parse_text(source: str):
    return parse(tokenize(source))


# ---- evaluation -------------------------------------------------------------------


class Environment(_Value):
    """The dimension and the name bindings an expression is evaluated in."""

    __match_args__ = ("d", "bindings")
    __hash__ = None  # bind() changes the bindings

    def __init__(self, d: int, bindings: dict[str, Multivector] | None = None):
        self.d = d
        self.bindings = {} if bindings is None else bindings
        check_dim(d)

    def bind(self, name: str, value: Multivector) -> None:
        """Bind a name the lexer reads back as one `ident` token; keywords
        such as `E`, `v`, `i`, `ip` and basis blades such as `e1` are not."""
        try:
            tokens = tokenize(name)
        except ExprSyntaxError:
            tokens = []
        if len(tokens) != 2 or (tokens[0].kind, tokens[0].text) != ("ident", name):
            raise EvalError(f"cannot bind {name!r}: an expression does not read it as a name")
        if value.d != self.d:
            raise EvalError(f"cannot bind {name}: value has dimension {value.d}, not {self.d}")
        self.bindings[name] = value


def evaluate(node, env: Environment) -> Multivector | complex:
    """Bottom-up evaluation; only a top-level ip(...) stays a bare scalar."""
    if isinstance(node, InnerProduct):
        return scalar_product(_evaluate(node.left, env), _evaluate(node.right, env))
    return _evaluate(node, env)


def _evaluate(node, env: Environment) -> Multivector:
    """Every node as a multivector; operands are evaluated left to right."""
    d = env.d
    match node:
        case BasisVector(index=i):
            if not 1 <= i <= d:
                raise IndexRangeError(f"e{i} does not exist in dimension {d}")
            return _result(d, {1 << (i - 1): 1 + 0j})
        case TopBlade():
            return Multivector.top(d)
        case ScalarLit(value=v):
            return Multivector.scalar(d, v)
        case Var(name=name):
            if name not in env.bindings:
                raise EvalError(f"unbound name {name!r}")
            return env.bindings[name]
        case Wedge(operands=xs):
            return reduce(wedge, (_evaluate(x, env) for x in xs))
        case Vee(operands=xs):
            return reduce(vee, (_evaluate(x, env) for x in xs))
        case Star(operand=x):
            return hodge(_evaluate(x, env))
        case Conj(operand=x):
            return conjugate(_evaluate(x, env))
        case Add(terms=((_, first), *rest)):
            return combine(_evaluate(first, env), ((s, _evaluate(x, env)) for s, x in rest))
        case ScalarMul(coeff=c, operand=x):
            return c * _evaluate(x, env)
        case InnerProduct():
            return Multivector.scalar(d, evaluate(node, env))
    raise EvalError(f"cannot evaluate node {node!r}")


def evaluate_text(source: str, env: Environment) -> Multivector | complex:
    return evaluate(parse_text(source), env)
