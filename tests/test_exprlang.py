import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import exprlang as E
from hyperq.exprlang import ParseError


def test_germ_expression_parses_to_quotient():
    node = E.parse("(2*w^2+3)/(w^2-w)")
    assert isinstance(node, E.Div)
    assert isinstance(node.left, E.Add)
    assert isinstance(node.right, E.Sub)


def test_set_union_of_intervals():
    node = E.parse("[0,1/3] | (1/2,1]", "set")
    assert isinstance(node, E.OrP)
    assert node.left == E.Interval(E.Num(Fraction(0)), E.Num(Fraction(1, 3)), True, True)
    assert node.right == E.Interval(E.Num(Fraction(1, 2)), E.Num(Fraction(1)), False, True)


def test_zero_denominator_literal():
    with pytest.raises(ParseError):
        E.parse("1/0")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        E.parse("w + ")
    assert err.value.line == 1
    assert err.value.col == 5


def test_k_rejected_outside_family_mode():
    with pytest.raises(ParseError):
        E.parse("k + 1")
    E.parse("k + 1", "family")  # fine here


@pytest.mark.parametrize("text, char", [
    ("\u0663", "\u0663"), ("\u00b2", "\u00b2"), ("\u0663+w", "\u0663"),
    ("2\u0663", "\u0663"), ("w^\u00b2", "\u00b2"),
])
def test_digits_are_ascii(text, char):
    # the grammar's digits are 0-9: str.isdigit would take these too
    with pytest.raises(ParseError, match=f"unexpected character {char!r}"):
        E.parse(text)


def test_fold_applies_the_table_and_hands_other_nodes_to_the_leaf():
    ops = {E.Neg: "neg({})".format, E.Add: "add({},{})".format, E.Sub: "sub({},{})".format,
           E.Mul: "mul({},{})".format, E.Pow: "pow({},{})".format}
    leaves = []

    def leaf(node):
        leaves.append(E.format(node))
        return leaves[-1]

    # Div and ShadowOf are not in the table: they reach the leaf whole
    value = E.fold(E.parse("-(w + 2)^3*shadow(w) - 1/w"), leaf, ops)
    assert value == "sub(mul(neg(pow(add(w,2),3)),shadow(w)),1/w)"
    assert leaves == ["w", "2", "shadow(w)", "1/w"]


def test_decimal_literals_become_exact_fractions():
    assert E.parse("0.25") == E.Num(Fraction(1, 4))
    assert E.parse("1.5*w") == E.Mul(E.Num(Fraction(3, 2)), E.Var("w"))


def test_literal_fractions_fold():
    assert E.parse("2/3") == E.Num(Fraction(2, 3))
    assert E.parse("-2/3") == E.Num(Fraction(-2, 3))
    assert E.parse("2/w") == E.Div(E.Num(Fraction(2)), E.Var("w"))


def test_format_examples():
    assert E.format(E.Add(E.Var("w"), E.Num(Fraction(1)))) == "w + 1"
    node = E.Mul(E.Add(E.Var("w"), E.Num(Fraction(1))), E.Var("w"))
    assert E.format(node) == "(w + 1)*w"


def test_format_walks_a_long_sum_without_recursion():
    # poly_to_ast nests one Add/Sub per term on the left
    p = tuple(Fraction((-1) ** (e + 1)) for e in range(3000))
    terms = [f"w^{e}" for e in range(2999, 1, -1)] + ["w", "1"]
    expected = terms[0] + "".join(
        (" + " if e % 2 else " - ") + t for e, t in zip(range(2998, -1, -1), terms[1:])
    )
    assert E.format(E.poly_to_ast(p)) == expected
    node = E.Sub(E.Sub(E.Var("a"), E.Var("b")), E.Add(E.Var("c"), E.Neg(E.Var("d"))))
    assert E.format(node) == "a - b - (c + -d)"


def test_format_precedence_pow_and_neg():
    assert E.format(E.Neg(E.Pow(E.Var("w"), 2))) == "-w^2"
    assert E.format(E.Pow(E.Neg(E.Var("w")), 2)) == "(-w)^2"
    assert E.parse("-w^2") == E.Neg(E.Pow(E.Var("w"), 2))


def test_exponent_must_be_integer():
    with pytest.raises(ParseError):
        E.parse("w^(1/2)")
    with pytest.raises(ParseError):
        E.parse("w^1.5")


def test_ext_literals():
    assert E.parse("M0", "ext") == E.NeutrixLit("M0", -1)
    assert E.parse("N(-2)", "ext") == E.NeutrixLit("N", -2)
    with pytest.raises(ParseError):
        E.parse("M0", "germ")


def test_monad_and_singleton():
    assert E.parse("monad(1/2)", "set") == E.MonadOf(E.Num(Fraction(1, 2)))
    assert E.parse("{1/3}", "set") == E.Singleton(E.Num(Fraction(1, 3)))


def test_set_precedence():
    node = E.parse("~inf & limited | std", "set")
    assert isinstance(node, E.OrP)
    assert isinstance(node.left, E.AndP)
    assert isinstance(node.left.left, E.NotP)


def test_set_grouping_vs_interval():
    grouped = E.parse("(limited | std) & ~inf", "set")
    assert isinstance(grouped, E.AndP)
    assert isinstance(grouped.left, E.OrP)


def test_parse_items():
    items = E.parse_items("1 + 1/w, 1/w, 3")
    assert len(items) == 3


# -- the round-trip property ---------------------------------------------


def random_germ_ast(rng, depth, mode="germ"):
    if depth <= 0 or rng.random() < 0.25:
        choice = rng.randrange(4 if mode != "ext" else 5)
        if choice == 0:
            q = Fraction(rng.randint(0, 9))
            return E.Num(q)
        if choice == 1:
            return E.Num(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if choice == 2:
            return E.Var("w")
        if choice == 3:
            return E.Var("k") if mode == "family" else E.Var("w")
        return rng.choice(
            [E.NeutrixLit("M0", -1), E.NeutrixLit("G0", 0),
             E.NeutrixLit("N", rng.randint(-3, 3))]
        )
    op = rng.randrange(6)
    if op == 0:
        return E.Add(random_germ_ast(rng, depth - 1, mode), random_germ_ast(rng, depth - 1, mode))
    if op == 1:
        return E.Sub(random_germ_ast(rng, depth - 1, mode), random_germ_ast(rng, depth - 1, mode))
    if op == 2:
        return E.Mul(random_germ_ast(rng, depth - 1, mode), random_germ_ast(rng, depth - 1, mode))
    if op == 3:
        left = random_germ_ast(rng, depth - 1, mode)
        right = random_germ_ast(rng, depth - 1, mode)
        if isinstance(left, E.Num) and isinstance(right, E.Num):
            return E.Mul(left, right)  # literal/literal folds; use a product instead
        return E.Div(left, right)
    if op == 4:
        child = random_germ_ast(rng, depth - 1, mode)
        if isinstance(child, E.Num):
            return E.Neg(E.Var("w"))
        return E.Neg(child)
    base = random_germ_ast(rng, depth - 1, mode)
    return E.Pow(base, rng.randint(0, 4))


def random_set_ast(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.randrange(4)
        if choice == 0:
            return E.PredAtom(rng.choice(["limited", "inf", "std"]))
        if choice == 1:
            return E.Interval(
                random_germ_ast(rng, 1),
                random_germ_ast(rng, 1),
                rng.random() < 0.5,
                rng.random() < 0.5,
            )
        if choice == 2:
            return E.Singleton(random_germ_ast(rng, 1))
        return E.MonadOf(random_germ_ast(rng, 1))
    op = rng.randrange(3)
    if op == 0:
        return E.NotP(random_set_ast(rng, depth - 1))
    if op == 1:
        return E.AndP(random_set_ast(rng, depth - 1), random_set_ast(rng, depth - 1))
    return E.OrP(random_set_ast(rng, depth - 1), random_set_ast(rng, depth - 1))


def test_roundtrip_random_germ_asts():
    rng = random.Random(2024)
    for _ in range(300):
        ast = random_germ_ast(rng, rng.randint(1, 8))
        assert E.parse(E.format(ast), "germ") == ast


def test_roundtrip_random_set_asts():
    rng = random.Random(5)
    for _ in range(200):
        ast = random_set_ast(rng, rng.randint(1, 5))
        assert E.parse(E.format(ast), "set") == ast


def test_roundtrip_random_ext_asts():
    rng = random.Random(17)
    for _ in range(200):
        ast = random_germ_ast(rng, rng.randint(1, 6), mode="ext")
        assert E.parse(E.format(ast), "ext") == ast


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=10 ** 4))
@settings(max_examples=50, deadline=None)
def test_number_roundtrip(p, q):
    ast = E.Num(Fraction(p, q))
    assert E.parse(E.format(ast)) == ast
