"""The expression front end against the three passes it replaced.

``reference_tokenize`` is the character loop that scanned the input,
``ReferenceParser`` the recursive-descent parser, with one method per
precedence level (``expr``, ``term``, ``unary``, ``set_expr``,
``set_inter``, ``set_neg``), and ``reference_bounded`` the walk over the
finished tree that capped its height and its exponent literals, all as
they were.  On random token strings and on generated expressions in
every mode, ``exprlang._tokenize`` must return the reference's tokens
and ``exprlang.parse`` the reference's tree, or each must raise a
``ParseError`` with the reference's message, line and column.  One
input with both a height and an exponent fault is the exception:
``exprlang`` reports the height, where the walk reported whichever it
met first in pre-order.
"""

from dataclasses import is_dataclass

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperq import exprlang as E
from hyperq.cli import DOMAIN, PARSE, run_command
from hyperq.errors import EngineError
from hyperq.exprlang import (
    MAX_DEPTH, _MODE_VARS, _PRED_NAMES, Add, AndP, Div, Interval, MonadOf, Mul, Neg,
    NeutrixLit, NotP, Num, OrP, ParseError, Pow, PredAtom, ShadowOf, Singleton, Sub, Token, Var,
    _num_value,
)
from hyperq.germ import _check_exponent

MODES = ("germ", "family", "ext", "set", "kset")

_PUNCT = "+-*/^()[]{},&|~"
_DIGITS = "0123456789"  # ASCII only: str.isdigit also takes other scripts' digits


def reference_tokenize(text):
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


def reference_bounded(node, tok):
    """``node`` if its height is at most MAX_DEPTH (else a ParseError)
    and no exponent literal passes germ.MAX_EXPONENT (else a domain
    error naming the leftmost): one walk, without recursion."""
    stack = [(node, 1)]
    while stack:
        n, h = stack.pop()
        if h > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok.line, tok.col)
        if type(n) is Pow:
            _check_exponent(n.exp)
        stack.extend((c, h + 1) for c in reversed(vars(n).values()) if is_dataclass(c))
    return node


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
    parser = ReferenceParser(reference_tokenize(text), mode)
    if mode in ("set", "kset"):
        node = parser.set_expr()
    else:
        node = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return reference_bounded(node, tok)


def reference_parse_items(text, mode="germ"):
    # as it was: no mode check, and always the arithmetic layer
    parser = ReferenceParser(reference_tokenize(text), mode)
    items = [parser.expr()]
    while parser.peek().kind == ",":
        parser.next()
        items.append(parser.expr())
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return tuple(reference_bounded(item, tok) for item in items)


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


# -- tokens -------------------------------------------------------------------


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.col)


@given(texts)
@DIFF
def test_tokens_agree_with_the_reference(text):
    assert tokens_or_error(E._tokenize, text) == tokens_or_error(reference_tokenize, text)


# other scripts' digits and numerals, the line and paragraph separators,
# NEL and the zero-width space, none of which the ASCII classes contain
ODD_CHARACTERS = "\uff11\U0001d7d9\xb2\xbd\u216b\x85\u2028\u2029\u200b\u0663"


def test_every_code_point_tokenizes_as_in_the_reference():
    chars = [chr(cp) for cp in range(0x3100)] + list(ODD_CHARACTERS)
    for text in chars + [f"w{c}1" for c in chars]:
        assert tokens_or_error(E._tokenize, text) == tokens_or_error(reference_tokenize, text), text


# -- the caps, checked as the tree is built ---------------------------------------

# the text of a tree of height n, for each node kind the parser builds
HEIGHTS = {
    "prefix -": ("germ", lambda n: "-" * (n - 1) + "w"),
    "prefix ~": ("set", lambda n: "~" * (n - 1) + "inf"),
    "infix arith": ("germ", lambda n: "w*w+" + "w+" * (n - 3) + "w"),
    "infix set": ("set", lambda n: "inf&std|" + "inf|" * (n - 3) + "inf"),
    "^ base": ("germ", lambda n: "(" * (n - 2) + "w^3" + ")^2" * (n - 2)),
    "shadow": ("germ", lambda n: "shadow(" * (n - 1) + "w" + ")" * (n - 1)),
    "interval lo": ("set", lambda n: "[" + "-" * (n - 2) + "w, 1]"),
    "interval hi": ("set", lambda n: "(0, " + "-" * (n - 2) + "w)"),
    "singleton": ("set", lambda n: "{" + "-" * (n - 2) + "w}"),
    "monad": ("set", lambda n: "monad(" + "-" * (n - 2) + "w)"),
    "folded -3": ("germ", lambda n: "w*" * (n - 1) + "--3"),
    "folded 1/2": ("set", lambda n: "{" + "1/2+" * (n - 2) + "1/2}"),
}


def height(node):
    return 1 + max((height(c) for c in vars(node).values() if is_dataclass(c)), default=0)


@pytest.mark.parametrize("kind", HEIGHTS)
def test_height_max_depth_is_accepted_and_one_more_is_refused(kind):
    mode, text_of = HEIGHTS[kind]
    top = text_of(MAX_DEPTH)
    assert height(E.parse(top, mode)) == MAX_DEPTH
    assert E.parse(top, mode) == reference_parse(top, mode)
    over = text_of(MAX_DEPTH + 1)
    refused = outcome(E.parse, over, mode)
    assert refused == outcome(reference_parse, over, mode)
    assert refused == ("ParseError", f"expression nests deeper than {MAX_DEPTH} levels "
                       f"(line 1, column {len(over) + 1})", 1, len(over) + 1)


def test_parse_items_refuses_a_second_item_alone_at_fault():
    text = "w^2, " + "-" * MAX_DEPTH + "w\n"
    refused = outcome(E.parse_items, text, "germ")
    assert refused == outcome(reference_parse_items, text, "germ")
    assert refused[2:] == (2, 1) and "nests deeper" in refused[1]


DEEP = "-" * MAX_DEPTH + "w"


def test_height_met_first_in_pre_order_is_refused_by_both():
    for text in (DEEP + " + w^2000", "w, " + DEEP + ", w^2000"):
        assert outcome(E.parse_items, text, "germ") == outcome(reference_parse_items, text, "germ")
        assert "nests deeper" in outcome(E.parse_items, text, "germ")[1]


def test_height_is_refused_before_an_exponent_met_first_in_pre_order():
    text = "w^2000 + " + DEEP
    with pytest.raises(EngineError, match="exponent 2000 exceeds"):
        reference_parse(text)
    assert "nests deeper" in outcome(E.parse, text, "germ")[1]
    # across items the first item's faults still come first
    text = "w^2000, " + DEEP
    for parse_items in (E.parse_items, reference_parse_items):
        with pytest.raises(EngineError, match="exponent 2000 exceeds"):
            parse_items(text)


def test_the_outer_exponent_is_named_as_in_pre_order():
    for text in ("(w^2000)^3000", "shadow(w^-2000)^3000 + w^4000", "w^2 + (w^2000)^-3000"):
        for parse in (E.parse, reference_parse):
            with pytest.raises(EngineError, match="exponent -?3000 exceeds"):
                parse(text)


def test_a_backtracked_interval_attempt_keeps_no_exponent():
    assert run_command(["measure", "((w^2000, 1) | [0,1])"]).exit_code == DOMAIN
    r = run_command(["measure", "(w^2000)"])
    assert r.exit_code == PARSE and r.text == "error: expected a set expression (line 1, column 2)"
