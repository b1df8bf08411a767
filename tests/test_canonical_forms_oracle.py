"""Polynomial division and external-number truncation checked against
sympy (a test-only oracle): ``divmod_`` against ``sympy.div``, and
``extnum._truncate`` against the series of f(1/x) at x = 0."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import _poly as P
from hyperq import extnum as X
from hyperq.germ import Germ, parse_germ, valuation

sympy = pytest.importorskip("sympy")

w, x = sympy.symbols("w x")

# interior zeros are drawn often: a third of the coefficients are 0
coeff = st.one_of(st.just(0), st.just(0), st.integers(-9, 9), st.integers(-54, 54))


def _poly(cs):
    return P.trim(tuple(Fraction(c) for c in cs))


def _sym(p, var=w):
    return sympy.Poly(list(reversed(p)) or [0], var, domain="QQ")


def _coeffs(poly):
    """A sympy polynomial as a tuple of Fractions, lowest degree first."""
    return _poly(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def _check_divmod(p, q):
    """divmod_ of integer polynomials is sympy.div of d * p over QQ."""
    quo, rem, d = P.divmod_(p, q)
    assert type(d) is int and d > 0
    assert all(type(c) is int for c in quo + rem)
    sq, sr = sympy.div(_sym(p), _sym(q))
    assert (_poly(Fraction(c, d) for c in quo), tuple(Fraction(c, d) for c in rem)) == (
        _coeffs(sq), _coeffs(sr))


@settings(max_examples=200, deadline=None)
@given(st.lists(coeff, max_size=10), st.lists(coeff, min_size=1, max_size=6))
def test_divmod_matches_sympy_div(p, q):
    p, q = P.trim(p), P.trim(q)
    if not q:
        with pytest.raises(ZeroDivisionError):
            P.divmod_(p, q)
        return
    _check_divmod(p, q)


@pytest.mark.parametrize("p, q", [
    ((1, 2), (3, 0, 1)),  # dividend shorter than the divisor
    ((), (1, 1)),  # zero dividend
    ((5,), (2,)),  # constant by constant
    ((1, 0, 0, 0, 0, 1), (1, 0, 1)),  # interior zeros on both sides
    ((0, 0, 0, 4), (0, 2)),  # exact division by a monomial
])
def test_divmod_edge_cases_match_sympy(p, q):
    _check_divmod(p, q)


def _expected_truncation(g: Germ, grade: int):
    """The terms of g's expansion at infinity above w^grade, from the
    series of f(1/x) at x = 0 (x^k stands for w^-k)."""
    if g.is_zero():
        return sympy.Integer(0)
    s = max(0, valuation(g))  # f(1/x) * x^s is analytic at 0
    f = (_sym(g.num).as_expr() / _sym(g.den).as_expr()).subs(w, 1 / x) * x ** s
    n = s - grade  # x^j with j < n is w^(s - j), above the grade
    if n <= 0:
        return sympy.Integer(0)
    series = sympy.series(f, x, 0, n).removeO()
    return sympy.expand(series / x ** s).subs(x, 1 / w)


germ_parts = st.lists(st.integers(-6, 6), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(germ_parts, germ_parts.filter(any), st.integers(-7, 4))
def test_truncate_matches_the_series_at_infinity(num, den, grade):
    g = Germ(_poly(num), _poly(den))
    kept = X._truncate(g, X.Neutrix(grade))
    expected = _expected_truncation(g, grade)
    got = _sym(kept.num).as_expr() / _sym(kept.den).as_expr()
    assert sympy.cancel(got - expected) == 0
    rest = g - kept
    assert rest.is_zero() or valuation(rest) <= grade
    assert kept.is_zero() or valuation(kept) > grade


@pytest.mark.parametrize("grade", [-12, -3, -1, 0, 2])
def test_truncate_of_zero_centre_is_zero(grade):
    assert X._truncate(Germ.constant(0), X.Neutrix(grade)).is_zero()


@pytest.mark.parametrize("text, grade", [
    ("1/(w+1)", -12), ("(w^3+2)/(w^2-w+5)", -9), ("(w^5+1)/(w+3)", 2),
    ("(w^5+1)/(w+3)", 0), ("3 + 1/w^2", -2), ("w^2/(w^2+1)", -1),
])
def test_truncate_examples_match_the_series(text, grade):
    g = parse_germ(text)
    kept = X._truncate(g, X.Neutrix(grade))
    got = _sym(kept.num).as_expr() / _sym(kept.den).as_expr()
    assert sympy.cancel(got - _expected_truncation(g, grade)) == 0
