"""Deterministic parser and pretty-printer for the engine's expressions.

Four entry modes share one grammar core:

* ``germ``   -- arithmetic over exact rationals and the indeterminate ``w``
* ``family`` -- same, with the family index ``k`` also allowed
* ``ext``    -- germ arithmetic plus neutrix literals ``M0``, ``G0``, ``N(g)``
* ``set``    -- interval algebra: ``[a,b]``, ``(a,b)``, half-open mixes,
  singletons ``{c}``, atoms ``limited``/``inf``/``std``/``monad(c)``, and
  the connectives ``~``, ``&``, ``|``
  (``kset`` is the same layer with interval endpoints in ``k``)

Precedence, tightest first: ``^``, unary ``-``, ``*`` ``/``, ``+`` ``-``,
``~``, ``&``, ``|``.  ``^`` takes a literal integer exponent.  Decimal
literals are converted to exact fractions; a literal fraction ``p/q`` is
folded into a single number node, so ``1/0`` is rejected while parsing.
``format`` prints with canonical spacing and minimal parentheses, and
``parse(format(t))`` returns ``t`` for every tree ``t`` in the parser's
image.  Input whose brackets and prefix operators, or whose tree, nest
deeper than ``MAX_DEPTH`` levels is refused with a ``ParseError``.  The
normative grammar ships in docs/grammar.ebnf.  Every evaluator of these
trees is one ``fold``: an operator table for the inner nodes and a leaf
function for the rest.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, is_dataclass
from fractions import Fraction
from typing import NamedTuple

from .germ import VAR_K, VAR_W, BivariateGerm, Germ, shadow, InfiniteShadow
from . import _poly as P
from .errors import EngineError


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# -- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class ShadowOf:
    child: object


@dataclass(frozen=True)
class NeutrixLit:
    label: str  # "M0", "G0" or "N"
    grade: int


@dataclass(frozen=True)
class Interval:
    lo: object
    hi: object
    lo_closed: bool
    hi_closed: bool


@dataclass(frozen=True)
class Singleton:
    value: object


@dataclass(frozen=True)
class PredAtom:
    name: str  # "limited" | "inf" | "std"


@dataclass(frozen=True)
class MonadOf:
    center: object


@dataclass(frozen=True)
class NotP:
    child: object


@dataclass(frozen=True)
class AndP:
    left: object
    right: object


@dataclass(frozen=True)
class OrP:
    left: object
    right: object


# -- tokenizer ---------------------------------------------------------


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_PUNCT = "+-*/^()[]{},&|~"
_DIGITS = "0123456789"  # ASCII only: str.isdigit also takes other scripts' digits


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            if i < n and text[i] == "." and i + 1 < n and text[i + 1] in _DIGITS:
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
            tok = text[start:i]
            tokens.append(Token("num", tok, line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("name", text[start:i], line, col))
            col += i - start
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


def _num_value(text):
    if "." in text:
        whole, frac = text.split(".")
        return Fraction(int(whole + frac), 10 ** len(frac))
    return Fraction(int(text))


_MODE_VARS = {
    "germ": ("w",),
    "family": ("w", "k"),
    "ext": ("w",),
    "set": ("w",),
    "kset": ("k",),
}

_PRED_NAMES = ("limited", "inf", "std")

# Bound on both the nesting of brackets and prefix operators met by the
# recursive descent and the height of the AST it returns, so that the
# parser and every recursive walk over its trees stay far inside the
# interpreter's stack.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens, mode):
        self.tokens = tokens
        self.pos = 0
        self.mode = mode
        self.vars = _MODE_VARS[mode]
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.next()

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def nested(self, parse):
        """``parse()`` one nesting level down, refusing to pass MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"expression nests deeper than {MAX_DEPTH} levels")
        node = parse()
        self.depth -= 1
        return node

    # -- arithmetic layer ---------------------------------------------

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            tok = self.next()
            rhs = self.unary()
            if tok.kind == "*":
                node = Mul(node, rhs)
            elif isinstance(node, Num) and isinstance(rhs, Num):
                if rhs.value == 0:
                    raise ParseError("zero denominator in literal", tok.line, tok.col)
                node = Num(node.value / rhs.value)
            else:
                node = Div(node, rhs)
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.next()
            child = self.nested(self.unary)
            if isinstance(child, Num):
                return Num(-child.value)
            return Neg(child)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.next()
            node = Pow(node, self.signed_int("integer exponent required"))
        return node

    def signed_int(self, message):
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        tok = self.peek()
        if tok.kind != "num" or "." in tok.text:
            raise ParseError(message, tok.line, tok.col)
        self.next()
        return sign * int(tok.text)

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Num(_num_value(tok.text))
        if tok.kind == "(":
            self.next()
            node = self.nested(self.expr)
            self.expect(")")
            return node
        if tok.kind == "name":
            name = tok.text
            if name in self.vars:
                self.next()
                return Var(name)
            if name == "shadow":
                self.next()
                self.expect("(")
                child = self.nested(self.expr)
                self.expect(")")
                return ShadowOf(child)
            if self.mode == "ext":
                if name == "M0":
                    self.next()
                    return NeutrixLit("M0", -1)
                if name == "G0":
                    self.next()
                    return NeutrixLit("G0", 0)
                if name == "N":
                    self.next()
                    self.expect("(")
                    grade = self.signed_int("neutrix grade must be an integer")
                    self.expect(")")
                    return NeutrixLit("N", grade)
            raise ParseError(f"unknown name {name!r}", tok.line, tok.col)
        self.fail(f"unexpected {tok.text or 'end of input'!r}")

    # -- set layer ------------------------------------------------------

    def set_expr(self):
        node = self.set_inter()
        while self.peek().kind == "|":
            self.next()
            node = OrP(node, self.set_inter())
        return node

    def set_inter(self):
        node = self.set_neg()
        while self.peek().kind == "&":
            self.next()
            node = AndP(node, self.set_neg())
        return node

    def set_neg(self):
        if self.peek().kind == "~":
            self.next()
            return NotP(self.nested(self.set_neg))
        return self.set_atom()

    def set_atom(self):
        tok = self.peek()
        if tok.kind == "[":
            return self.interval()
        if tok.kind == "{":
            self.next()
            value = self.expr()
            self.expect("}")
            return Singleton(value)
        if tok.kind == "(":
            save = self.pos, self.depth
            try:
                return self.interval()
            except ParseError:
                self.pos, self.depth = save
            self.next()
            node = self.nested(self.set_expr)
            self.expect(")")
            return node
        if tok.kind == "name":
            if tok.text in _PRED_NAMES:
                self.next()
                return PredAtom(tok.text)
            if tok.text == "monad":
                self.next()
                self.expect("(")
                center = self.expr()
                self.expect(")")
                return MonadOf(center)
        self.fail("expected a set expression")

    def interval(self):
        opener = self.next()
        lo_closed = opener.kind == "["
        lo = self.expr()
        self.expect(",")
        hi = self.expr()
        closer = self.peek()
        if closer.kind not in (")", "]"):
            self.fail("expected ')' or ']' to close the interval")
        self.next()
        return Interval(lo, hi, lo_closed, closer.kind == "]")


def _bounded(node, tok):
    """``node`` if its height is at most MAX_DEPTH; found without recursion."""
    stack = [(node, 1)]
    while stack:
        n, h = stack.pop()
        if h > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok.line, tok.col)
        stack.extend((c, h + 1) for c in vars(n).values() if is_dataclass(c))
    return node


def parse(text: str, mode: str = "germ"):
    """Parse ``text`` in the given mode and return its AST."""
    if mode not in ("germ", "family", "ext", "set", "kset"):
        raise ValueError(f"unknown mode {mode!r}")
    parser = _Parser(_tokenize(text), mode)
    if mode in ("set", "kset"):
        node = parser.set_expr()
    else:
        node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return _bounded(node, tok)


def parse_items(text: str, mode: str = "germ"):
    """Parse a comma-separated list of expressions."""
    parser = _Parser(_tokenize(text), mode)
    items = [parser.expr()]
    while parser.peek().kind == ",":
        parser.next()
        items.append(parser.expr())
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return tuple(_bounded(item, tok) for item in items)


# -- pretty printer -----------------------------------------------------

_OR, _AND, _NOT = 1, 2, 3
_ADD, _MUL, _NEG, _POW, _ATOM = 4, 5, 6, 7, 10


def _prec(node):
    if isinstance(node, Num):
        if node.value.denominator != 1:
            return _MUL
        return _ATOM if node.value >= 0 else _NEG
    if isinstance(node, (Add, Sub)):
        return _ADD
    if isinstance(node, (Mul, Div)):
        return _MUL
    if isinstance(node, Neg):
        return _NEG
    if isinstance(node, Pow):
        return _POW
    if isinstance(node, OrP):
        return _OR
    if isinstance(node, AndP):
        return _AND
    if isinstance(node, NotP):
        return _NOT
    return _ATOM


def _wrap(node, parent_prec, right=False):
    text = format(node)
    prec = _prec(node)
    if prec < parent_prec or (right and prec == parent_prec):
        return f"({text})"
    return text


def format(node) -> str:
    """Render an AST with canonical spacing and minimal parentheses."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return "-" + _wrap(node.child, _NEG)
    if isinstance(node, (Add, Sub)):
        # walk the left spine in a loop, so a long sum does not recurse:
        # an equal-precedence left operand never takes parentheses
        parts = []
        while isinstance(node, (Add, Sub)):
            op = " + " if isinstance(node, Add) else " - "
            parts.append(op + _wrap(node.right, _ADD, right=True))
            node = node.left
        parts.append(_wrap(node, _ADD))
        return "".join(reversed(parts))
    if isinstance(node, Mul):
        return f"{_wrap(node.left, _MUL)}*{_wrap(node.right, _MUL, right=True)}"
    if isinstance(node, Div):
        return f"{_wrap(node.left, _MUL)}/{_wrap(node.right, _MUL, right=True)}"
    if isinstance(node, Pow):
        # the grammar allows only atoms as bases, so anything below
        # atom precedence gets parenthesised (including another power)
        base = format(node.base)
        if _prec(node.base) < _ATOM:
            base = f"({base})"
        return f"{base}^{node.exp}"
    if isinstance(node, ShadowOf):
        return f"shadow({format(node.child)})"
    if isinstance(node, NeutrixLit):
        return node.label if node.label != "N" else f"N({node.grade})"
    if isinstance(node, Interval):
        lo, hi = format(node.lo), format(node.hi)
        left = "[" if node.lo_closed else "("
        right = "]" if node.hi_closed else ")"
        return f"{left}{lo},{hi}{right}"
    if isinstance(node, Singleton):
        return "{" + format(node.value) + "}"
    if isinstance(node, PredAtom):
        return node.name
    if isinstance(node, MonadOf):
        return f"monad({format(node.center)})"
    if isinstance(node, NotP):
        return "~" + _wrap(node.child, _NOT)
    if isinstance(node, AndP):
        return f"{_wrap(node.left, _AND)} & {_wrap(node.right, _AND, right=True)}"
    if isinstance(node, OrP):
        return f"{_wrap(node.left, _OR)} | {_wrap(node.right, _OR, right=True)}"
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluation: one fold over the tree ----------------------------------


def fold(node, leaf, ops):
    """The value of ``node``.  A node whose type is a key of ``ops``
    applies that function to the values of its children, and a ``Pow``
    also passes its literal exponent; every other node is ``leaf(node)``."""
    op = ops.get(type(node))
    if op is None:
        return leaf(node)
    if type(node) is Pow:
        return op(fold(node.base, leaf, ops), node.exp)
    return op(*[fold(child, leaf, ops) for child in vars(node).values()])


# arithmetic on germs and families; set connectives on sets' own methods
ARITH = {Neg: operator.neg, Add: operator.add, Sub: operator.sub,
         Mul: operator.mul, Div: operator.truediv, Pow: operator.pow}
SET_OPS = {NotP: lambda x: x.complement(), AndP: lambda x, y: x.intersect(y),
           OrP: lambda x, y: x.union(y)}


def to_germ(node, var: str = "w") -> Germ:
    """Evaluate an arithmetic AST into a Germ, reading ``var`` as the
    indeterminate."""

    def leaf(node):
        if isinstance(node, Num):
            return Germ.constant(node.value)
        if isinstance(node, Var):
            if node.name != var:
                raise EngineError(f"variable {node.name!r} not allowed here")
            return Germ(P.VAR)
        if isinstance(node, ShadowOf):
            sh = shadow(to_germ(node.child, var))
            if isinstance(sh, InfiniteShadow):
                raise EngineError("shadow of an unlimited germ is not a germ")
            return Germ.constant(sh)
        raise EngineError(f"not a germ expression: {format(node)}")

    return fold(node, leaf, ARITH)


def _family_leaf(node) -> BivariateGerm:
    if isinstance(node, Num):
        return BivariateGerm.constant(node.value)
    if isinstance(node, Var):
        return VAR_K if node.name == "k" else VAR_W
    raise EngineError(f"not a family expression: {format(node)}")


def to_family(node) -> BivariateGerm:
    """Evaluate a two-variable AST into a k-indexed family of germs."""
    return fold(node, _family_leaf, ARITH)


# -- germ -> AST ---------------------------------------------------------


def _term_ast(coeff: Fraction, exp: int, var: str):
    if exp == 0:
        return Num(coeff)
    base = Var(var) if exp == 1 else Pow(Var(var), exp)
    if coeff == 1:
        return base
    if coeff == -1:
        return Neg(base)
    return Mul(Num(coeff), base)


def poly_to_ast(p, var: str = "w"):
    if not p:
        return Num(Fraction(0))
    terms = [(e, c) for e, c in enumerate(p) if c != 0]
    terms.reverse()
    exp, coeff = terms[0]
    node = _term_ast(coeff, exp, var)
    for exp, coeff in terms[1:]:
        if coeff > 0:
            node = Add(node, _term_ast(coeff, exp, var))
        else:
            node = Sub(node, _term_ast(-coeff, exp, var))
    return node


def germ_to_ast(g: Germ, var: str = "w"):
    num = poly_to_ast(g.num, var)
    if g.den == P.ONE:
        return num
    return Div(num, poly_to_ast(g.den, var))
