"""The expression parser against the recursive-descent parser it replaced.

``ReferenceParser`` is that parser as it was: one method per precedence
level (``expr``, ``term``, ``unary``, ``set_expr``, ``set_inter``,
``set_neg``).  On random token strings and on generated expressions in
every mode, ``exprlang.parse`` must return the reference's tree or raise
a ``ParseError`` with the reference's message, line and column.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperq import exprlang as E
from hyperq.exprlang import (
    MAX_DEPTH, _MODE_VARS, _PRED_NAMES, Add, AndP, Div, Interval, MonadOf, Mul, Neg,
    NeutrixLit, NotP, Num, OrP, ParseError, Pow, PredAtom, ShadowOf, Singleton, Sub, Var,
    _bounded, _num_value, _tokenize,
)

MODES = ("germ", "family", "ext", "set", "kset")


class ReferenceParser:
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


def reference_parse(text, mode="germ"):
    if mode not in ("germ", "family", "ext", "set", "kset"):
        raise ValueError(f"unknown mode {mode!r}")
    parser = ReferenceParser(_tokenize(text), mode)
    if mode in ("set", "kset"):
        node = parser.set_expr()
    else:
        node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return _bounded(node, tok)


def reference_parse_items(text, mode="germ"):
    # as it was: no mode check, and always the arithmetic layer
    parser = ReferenceParser(_tokenize(text), mode)
    items = [parser.expr()]
    while parser.peek().kind == ",":
        parser.next()
        items.append(parser.expr())
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return tuple(_bounded(item, tok) for item in items)


# -- inputs ----------------------------------------------------------------

TOKENS = ["0", "1", "2", "3", "10", "0.5", "1.25", "w", "k", "x", "shadow", "M0", "G0", "N",
          "limited", "inf", "std", "monad", "+", "-", "*", "/", "^", "(", ")", "[", "]",
          "{", "}", ",", "&", "|", "~", " ", "\n", "@"]

token_strings = st.lists(st.sampled_from(TOKENS), max_size=30).map("".join)


def _arith_step(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " + ", " - "]), inner).map("".join),
        inner.map("-{}".format),
        inner.map("({})".format),
        inner.map("shadow({})".format),
        st.tuples(inner, st.sampled_from(["^2", "^-1", "^0", "^1.5", "^w", "^2^3"])).map("".join),
    )


arith_texts = st.recursive(
    st.sampled_from(["0", "1", "2", "7", "10", "0.5", "w", "k", "M0", "G0", "N(2)", "N(-1)", "y"]),
    _arith_step, max_leaves=12)


def _set_step(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["|", "&", " | ", " & "]), inner).map("".join),
        inner.map("~{}".format),
        inner.map("({})".format),
    )


set_atoms = st.one_of(
    st.sampled_from(["limited", "inf", "std", "monad(1/2)", "{1/3}", "{w}", "monad(", "nope"]),
    st.tuples(st.sampled_from("[("), arith_texts, st.sampled_from([",", ", ", ";"]), arith_texts,
              st.sampled_from(["]", ")", ""])).map("".join),
)
set_texts = st.recursive(set_atoms, _set_step, max_leaves=8)

# bracket and prefix nesting on both sides of MAX_DEPTH
deep_texts = st.builds(
    lambda n, wrap: wrap[0] * n + wrap[1] + wrap[2] * n,
    st.integers(MAX_DEPTH - 3, MAX_DEPTH + 3),
    st.sampled_from([("(", "w", ")"), ("-", "w", ""), ("-", "3", ""), ("- (", "w", ")"),
                     ("shadow(", "w", ")"), ("~", "inf", ""), ("(", "limited", ")"),
                     ("~(", "std", ")"), ("(", "[0,1]", ")"), ("(-", "2", ")")]),
)

# left-nested chains whose trees grow past MAX_DEPTH without any bracket
chain_texts = st.builds(
    lambda n, link, last: link * n + last,
    st.integers(1, 3 * MAX_DEPTH),
    st.sampled_from(["w+", "w-", "w*", "w/", "1/", "2*", "w^2*", "inf|", "inf&", "~inf|", "[0,1]|"]),
    st.sampled_from(["w", "1", "0", "inf", "[0,1]"]),
)

texts = st.one_of(token_strings, arith_texts, set_texts, deep_texts, chain_texts)


def outcome(parse, text, mode):
    try:
        return parse(text, mode)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col)


# -- properties --------------------------------------------------------------

DIFF = settings(max_examples=300, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@given(texts)
@DIFF
def test_parse_agrees_with_the_reference_in_every_mode(text):
    for mode in MODES:
        assert outcome(E.parse, text, mode) == outcome(reference_parse, text, mode), (text, mode)


@given(st.lists(st.one_of(arith_texts, token_strings), min_size=1, max_size=4).map(",".join))
@DIFF
def test_parse_items_agrees_with_the_reference_on_arithmetic_modes(text):
    for mode in ("germ", "family", "ext"):
        assert outcome(E.parse_items, text, mode) == outcome(reference_parse_items, text, mode)


def test_the_inputs_reach_both_outcomes_and_both_nesting_guards():
    cases = {
        "(" * MAX_DEPTH + "w" + ")" * MAX_DEPTH: "germ",
        "(" * (MAX_DEPTH + 1) + "w" + ")" * (MAX_DEPTH + 1): "germ",
        "-" * (MAX_DEPTH + 1) + "w": "germ",
        "~" * (MAX_DEPTH + 1) + "inf": "set",
        "w+" * MAX_DEPTH + "w": "germ",
        "inf|" * MAX_DEPTH + "inf": "set",
        "-2/3 + 1/0": "germ",
        "(0,1) | (limited | std)": "set",
    }
    for text, mode in cases.items():
        assert outcome(E.parse, text, mode) == outcome(reference_parse, text, mode)
    assert "nests deeper" in outcome(E.parse, "-" * (MAX_DEPTH + 1) + "w", "germ")[1]
    assert "nests deeper" in outcome(E.parse, "w+" * MAX_DEPTH + "w", "germ")[1]
    assert "zero denominator" in outcome(E.parse, "-2/3 + 1/0", "germ")[1]
