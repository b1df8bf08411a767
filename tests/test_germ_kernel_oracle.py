"""The germ kernel's order, field operations and hash, checked against
sympy (a test-only oracle) on small germs, constants over-represented."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import _poly as P
from hyperq.germ import Germ, compare

sympy = pytest.importorskip("sympy")

w = sympy.Symbol("w")

coeffs = st.lists(st.integers(-20, 20), min_size=1, max_size=5)  # degree <= 4
constant = st.lists(st.integers(-20, 20), min_size=1, max_size=1)
factor = st.lists(st.integers(-3, 3), min_size=2, max_size=3).filter(lambda c: c[-1] != 0)


def _poly(cs):
    return P.trim(tuple(Fraction(c) for c in cs))


@st.composite
def germs(draw):
    """A germ from a drawn num and den of degree <= 4; half the parts are
    constants, and a third of the germs are built with a shared factor."""
    num = _poly(draw(st.one_of(constant, coeffs)))
    den = _poly(draw(st.one_of(constant, coeffs).filter(any)))
    if draw(st.integers(0, 2)) == 0:
        f = _poly(draw(factor))
        num, den = P.mul(num, f), P.mul(den, f)
    return Germ(num, den)


def _pair(g):
    """num and den of a germ as sympy polynomials over QQ."""
    return tuple(sympy.Poly(list(reversed(p)) or [0], w, domain="QQ") for p in (g.num, g.den))


def _cancel(num, den):
    """sympy's reduced form of num/den, with a monic denominator."""
    num, den = num.cancel(den, include=True)
    return num.quo_ground(den.LC()), den.monic()


def _assert_canonical_and_equal(g, num, den):
    gn, gd = _pair(g)
    assert gd.LC() == 1
    assert gn.gcd(gd).degree() == 0  # so zero is 0/1
    assert (gn, gd) == _cancel(num, den)


@settings(max_examples=300, deadline=None)
@given(germs(), germs())
def test_compare_is_the_sign_at_infinity(a, b):
    (an, ad), (bn, bd) = _pair(a), _pair(b)
    num = _cancel(an * bd - bn * ad, ad * bd)[0]
    assert compare(a, b) == sympy.sign(num.LC())
    for q in (0, 1, Fraction(-3, 7)):  # coerced like germs
        num = _cancel(an - ad * sympy.Rational(Fraction(q).numerator, Fraction(q).denominator), ad)[0]
        assert compare(a, q) == sympy.sign(num.LC())


@settings(max_examples=300, deadline=None)
@given(germs(), germs(), st.integers(-3, 3))
def test_field_operations_are_canonical_and_exact(a, b, n):
    (an, ad), (bn, bd) = _pair(a), _pair(b)
    _assert_canonical_and_equal(a + b, an * bd + bn * ad, ad * bd)
    _assert_canonical_and_equal(a - b, an * bd - bn * ad, ad * bd)
    _assert_canonical_and_equal(a * b, an * bn, ad * bd)
    if not b.is_zero():
        _assert_canonical_and_equal(a / b, an * bd, ad * bn)
    if n >= 0:
        _assert_canonical_and_equal(a ** n, an ** n, ad ** n)
    elif not a.is_zero():
        _assert_canonical_and_equal(a ** n, ad ** -n, an ** -n)


@settings(max_examples=300, deadline=None)
@given(germs(), st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any))
def test_equal_germs_hash_alike(a, cs):
    f = _poly(cs)
    b = Germ(P.mul(a.num, f), P.mul(a.den, f))  # the same germ, rebuilt
    assert a == b and hash(a) == hash(b)
    if a.is_constant():
        q = a.constant_value()
        assert a == q and hash(a) == hash(q)


@given(germs())
def test_order_refuses_non_numbers(a):
    with pytest.raises(TypeError):
        a < "x"
    with pytest.raises(TypeError):
        compare(a, "x")
