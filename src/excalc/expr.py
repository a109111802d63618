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
numeric literal beyond the float range raises it at the literal.  An error
echoes at most 80 characters of the text it quotes, and at most 80 digits of
a basis index, with `...` after a longer one.

The lexer makes one regex match per token: the blanks before a token are
lexed with it, and a token's column is that of its own first character.  An
unspaced run of basis indices, as in `e1^e3^e7`, is one `basis` token whose
`index` is the tuple of its indices; a spaced `e1 ^ e3` is three tokens.  A
run scaled by a number or `i` on the same line, `0.5i * e2^e3` as a term
prints, is one `piece` token: its `value` is the coefficient, its `index`
the run's tuple, and it parses to the tree of its scalar, `*` and run, with
the same errors at the same columns.  Tokens are named tuples, each built
in one `tuple.__new__` call with all six fields.  Tree nodes are plain value
classes: nodes with equal fields are equal and hash alike, and nothing
assigns to a node the parser has built, so one parse shares one `Blade`
leaf per index tuple.  A run is one operand of its wedge chain, but a
prefix operator, the `*` of a piece among them, takes only its first index:
`*e1^e2` is `(*e1)^e2` and `2 * e1^e2` is `(2 * e1)^e2`.  A one-index leaf
evaluates to the cached, immutable `basis_vector(d, N)`, a longer one to
its signed blade in one pass.  A one-term node, a leaf, a scaled one or a
wedge of them as in `2 * e1^e3^e5`, evaluates to a bare (mask, coefficient)
pair, `_one_term`, and a sum adds each term's pair, or the terms of each
other term's value, into one dict: one value is built per sum, none per
term.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from functools import partial, reduce

from .errors import EvalError, ExprSyntaxError, IndexRangeError
from .multivector import (
    Multivector,
    _Value,
    _add_terms,
    _echo,
    _kept,
    basis_vector,
    check_dim,
    conjugate,
    hodge,
    merge_sign,
    scalar_product,
    vee,
    wedge,
)

MAX_NESTING = 100

# ---- tokens -------------------------------------------------------------------

# One match per token: the blanks before it (any whitespace but a newline),
# then one alternative per token class, tried in order, the most common first.
# A basis token is an unspaced run `e1^e3^e7` of one or more indices, and a
# piece is a run scaled by a number or `i` on the same line, `0.5i * e2^e3`:
# the `basis` alternative with its `coeff`.  A number is ASCII digits only and
# takes an `i` suffix only when that `i` ends the word.  `end` matches at the
# end of the source, after any trailing blanks.
_NUMBER = r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_TOKEN = re.compile(
    rf"[^\S\n]*(?:(?P<basis>(?:(?P<coeff>{_NUMBER}i?|i)[^\S\n]*\*[^\S\n]*)?"
    r"(?P<run>e[0-9]+(?:\^e[0-9]+)*)(?![A-Za-z0-9_]))|(?P<op>[-+^*~])"
    rf"|(?P<scalar>{_NUMBER}(?:i(?![A-Za-z0-9_]))?)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)"
    r"|(?P<newline>\n)|(?P<end>\Z)|(?P<unknown>\S))"
)
_KEYWORDS = {"E": ("top", 0j), "v": ("op", 0j), "i": ("scalar", 1j), "ip": ("ip", 0j)}


# kind: basis | piece | top | scalar | op | lparen | rparen | comma | ident | ip
# | end; `index` is the tuple of a run's indices for a basis or piece token, 0
# for every other kind, and `value` is a piece's or a scalar's coefficient
Token = namedtuple("Token", "kind text line col value index", defaults=(0j, 0))


def tokenize(source: str) -> list[Token]:
    """Longest-match lexing; raises ExprSyntaxError on any unknown character."""
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        col = m.start(kind) - line_start + 1
        if kind == "basis":
            # At most 81 significant digits of an index reach `int`: with more
            # than the two of MAX_DIM an index is out of range in every
            # dimension, and an 81st digit tells the range error that it
            # quotes only 80.  A run of at most 82 characters has no longer one.
            run = m["run"]
            digits = run[1:].split("^e")
            if len(run) > 82:
                digits = [i.lstrip("0")[:81] or "0" for i in digits]
            coeff = m["coeff"]
            if coeff is None:
                append(new(Token, (kind, text, line, col, 0j, tuple(map(int, digits)))))
            else:
                value = _number(coeff, line, col)
                append(new(Token, ("piece", text, line, col, value, tuple(map(int, digits)))))
        elif kind == "scalar":
            append(new(Token, (kind, text, line, col, _number(text, line, col), 0)))
        elif kind == "word":
            kind, value = _KEYWORDS.get(text, ("ident", 0j))
            append(new(Token, (kind, text, line, col, value, 0)))
        elif kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "unknown":
            raise ExprSyntaxError(f"unknown character {text!r}", line, col)
        else:  # op, lparen, rparen, comma, end
            append(new(Token, (kind, text, line, col, 0j, 0)))
            if kind == "end":  # after trailing blanks, `end` would match twice
                break
    return tokens


def _number(text: str, line: int, col: int) -> complex:
    """The value of a numeric literal, or of a piece's coefficient `i`."""
    if text == "i":
        return 1j
    imag = text[-1] == "i"
    number = float(text[:-1] if imag else text)
    if math.isinf(number):
        raise ExprSyntaxError(f"number {text!r:.80} overflows", line, col)
    return complex(0.0, number) if imag else complex(number)


# ---- syntax tree ----------------------------------------------------------------
# Each node class lists its fields in __match_args__, which _Value compares,
# hashes and prints.


class Blade(_Value):
    __match_args__ = ("indices",)

    def __init__(self, indices: tuple[int, ...]):
        self.indices = indices  # one or more, in source order


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
        self.next = iter(tokens).__next__
        self.here = self.next()  # the current token; advance() moves it on
        self.depth = 0  # open `(`, `ip(` and prefix operators
        self.leaves: dict[tuple[int, ...], Blade] = {}  # one node per index tuple
        self.rest = None  # a run's leaf after the index a prefix operator took

    def advance(self) -> Token:
        tok = self.here
        self.here = self.next()
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.here
        # of a run, its first index; of a piece, its coefficient
        text = tok.text.partition("*" if tok.kind == "piece" else "^e")[0].rstrip()
        what = "end of input" if tok.kind == "end" else f"{text!r:.80}"
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
        tok = self.here
        return tok.kind == "op" and tok.text in ops

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
        while True:
            if self.rest is not None:  # only a wedge chain meets one
                operands.append(self.rest)
                self.rest = None
            if not self.at(op):
                return node(tuple(operands)) if len(operands) > 1 else operands[0]
            self.advance()
            operands.append(operand())

    def unary(self, prefixed: bool = False):
        tok = self.here
        if tok.kind == "piece":
            # `c * e1^e2` as its scalar, `*` and run parse: the `*` nests one
            # level, and the rest of the run is the next operand of the chain
            if self.depth == MAX_NESTING:
                col = tok.col + tok.text.index("*")
                raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING}", tok.line, col)
            self.advance()
            return ScalarMul(tok.value, self.run(tok.index))
        if self.at("*~-"):
            wrap = _PREFIX[tok.text]
        elif tok.kind == "scalar":
            coeff = self.advance().value
            if not self.at("*"):
                return ScalarLit(coeff)
            wrap = partial(ScalarMul, coeff)
        else:
            return self.atom(prefixed)
        self.deeper()
        operand = self.unary(True)
        self.depth -= 1
        return wrap(operand)

    def atom(self, prefixed: bool = False):
        tok = self.here
        if tok.kind == "basis":
            self.advance()
            return self.run(tok.index) if prefixed else self.leaf(tok.index)
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

    def run(self, indices: tuple[int, ...]) -> Blade:
        """A prefix operator takes a run's first index; the rest of the run is
        the next operand of the enclosing wedge chain."""
        if len(indices) > 1:
            self.rest = self.leaf(indices[1:])
        return self.leaf(indices[:1])

    def leaf(self, indices: tuple[int, ...]) -> Blade:
        node = self.leaves.get(indices)
        if node is None:
            node = self.leaves[indices] = Blade(indices)
        return node


def parse(tokens: list[Token]):
    return _Parser(tokens).parse()


def parse_text(source: str):
    return parse(tokenize(source))


# ---- evaluation -------------------------------------------------------------------


class Environment(_Value):
    """The dimension and the name bindings an expression is evaluated in:
    none at first, then each one that `bind` accepts."""

    __match_args__ = ("d", "bindings")
    __hash__ = None  # bind() changes the bindings

    def __init__(self, d: int):
        self.d = check_dim(d)
        self.bindings: dict[str, Multivector] = {}

    def bind(self, name: str, value: Multivector) -> None:
        """Bind a name the lexer reads back as one `ident` token; keywords
        such as `E`, `v`, `i`, `ip` and basis blades such as `e1` are not."""
        try:
            tokens = tokenize(name)
        except ExprSyntaxError:
            tokens = []
        if len(tokens) != 2 or (tokens[0].kind, tokens[0].text) != ("ident", name):
            raise EvalError(f"cannot bind {name!r:.80}: an expression does not read it as a name")
        if value.d != self.d:
            raise EvalError(f"cannot bind {name:.80}: value has dimension {value.d}, not {self.d}")
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
        case Blade(indices=indices):
            mask, sign = _blade(indices, d)
            if len(indices) == 1:
                return basis_vector(d, indices[0])
            return Multivector._build(d, {mask: complex(sign)} if sign else {})
        case Wedge(operands=xs):
            pair = _one_term(node, d)
            if pair is None:
                return reduce(wedge, (_evaluate(x, env) for x in xs))
            return Multivector._build(d, dict((pair,)))
        case ScalarMul(coeff=c, operand=x):
            return c * _evaluate(x, env)
        case Add(terms=((_, first), *rest)):
            # one dict for the whole sum; a one-term node adds its pair, and
            # `_add_terms` is `combine`'s rule for every later coefficient
            pair = _one_term(first, d)
            out = dict((pair,)) if pair else dict(_evaluate(first, env)._terms)
            for sign, x in rest:
                pair = _one_term(x, d)
                _add_terms(out, sign, (pair,) if pair else _evaluate(x, env)._terms.items())
            return Multivector._build(d, out)
        case TopBlade():
            return Multivector.top(d)
        case ScalarLit(value=v):
            return Multivector.scalar(d, v)
        case Var(name=name):
            if name not in env.bindings:
                raise EvalError(f"unbound name {name!r:.80}")
            return env.bindings[name]
        case Vee(operands=xs):
            return reduce(vee, (_evaluate(x, env) for x in xs))
        case Star(operand=x):
            return hodge(_evaluate(x, env))
        case Conj(operand=x):
            return conjugate(_evaluate(x, env))
        case InnerProduct():
            return Multivector.scalar(d, evaluate(node, env))
    raise EvalError(f"cannot evaluate node {node!r}")


def _blade(indices: tuple[int, ...], d: int) -> tuple[int, int]:
    """The mask of a leaf's indices and the sign that sorts them, 0 if one
    repeats.  Every index is range-checked in order: the first out of range
    raises IndexRangeError, also after a repeat."""
    mask, sign = 0, 1
    for i in indices:
        if not 1 <= i <= d:
            raise IndexRangeError(f"e{_echo(i)} does not exist in dimension {d}")
        bit = 1 << i - 1
        if mask & bit:
            sign = 0
        elif (mask >> i).bit_count() & 1:  # the indices before it above i
            sign = -sign
        mask |= bit
    return mask, sign


def _one_term(node, d: int) -> tuple[int, complex] | None:
    """A one-term node as its (mask, coefficient) pair, computed with the
    float steps of its value: a `Blade`, as its signed blade; a `ScalarMul`,
    as `Multivector.__mul__` scales; a `Wedge`, as `wedge` multiplies one
    term by one, `0j + sign * c * cb`.  A scaled or multiplied coefficient
    passes `_kept`, so a non-finite one raises its ValueError, and an index
    out of range raises as its leaf does.  None for any other node, a
    repeated index, a shared mask or a pruned coefficient: evaluation is
    pure, so the node's value then gives the same value, or raises the same
    error at the same point."""
    cls = node.__class__
    if cls is Blade:
        mask, sign = _blade(node.indices, d)
        return (mask, complex(sign)) if sign else None
    if cls is ScalarMul:
        pair = _one_term(node.operand, d)
        if pair is None:
            return None
        mask, c = pair
        c = c * node.coeff
        return (mask, c) if _kept(mask, c) else None
    if cls is Wedge:
        operands = iter(node.operands)
        pair = _one_term(next(operands), d)
        if pair is None:
            return None
        s, c = pair
        for x in operands:
            pair = _one_term(x, d)
            if pair is None or s & pair[0]:
                return None
            t, cb = pair
            c = 0j + merge_sign(s, t) * c * cb
            s |= t
            if not _kept(s, c):
                return None
        return s, c
    return None


def evaluate_text(source: str, env: Environment) -> Multivector | complex:
    return evaluate(parse_text(source), env)
