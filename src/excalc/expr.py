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
parser raises ExprSyntaxError at the token that crosses the limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial, reduce

from .errors import EvalError, ExprSyntaxError, IndexRangeError
from .multivector import (
    Multivector,
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


@dataclass(frozen=True)
class Token:
    kind: str  # basis | top | scalar | op | lparen | rparen | comma | ident | ip | end
    text: str
    line: int
    col: int
    value: complex = 0j
    index: int = 0


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
            value = complex(0.0, float(text[:-1])) if m["imag"] else complex(float(text))
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


@dataclass(frozen=True)
class BasisVector:
    index: int


@dataclass(frozen=True)
class TopBlade:
    pass


@dataclass(frozen=True)
class ScalarLit:
    value: complex


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Wedge:
    operands: tuple  # two or more, folded left to right


@dataclass(frozen=True)
class Vee:
    operands: tuple  # two or more, folded left to right


@dataclass(frozen=True)
class Star:
    operand: object


@dataclass(frozen=True)
class Conj:
    operand: object


@dataclass(frozen=True)
class Add:
    terms: tuple  # (sign, node) pairs, two or more; the first sign is +1


@dataclass(frozen=True)
class ScalarMul:
    coeff: complex
    operand: object


@dataclass(frozen=True)
class InnerProduct:
    left: object
    right: object


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


@dataclass
class Environment:
    d: int
    bindings: dict[str, Multivector] = field(default_factory=dict)

    def __post_init__(self):
        check_dim(self.d)

    def bind(self, name: str, value: Multivector) -> None:
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
            return Multivector.from_indices(d, (i,))
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
