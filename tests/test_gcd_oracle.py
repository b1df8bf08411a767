"""_poly.gcd checked against sympy's gcd over QQ (a test-only oracle),
made primitive with a positive leading coefficient, with and without a
planted common factor, and on the inputs where the coprimality
certificate modulo 2^31 - 1 must step aside."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import _poly as P

sympy = pytest.importorskip("sympy")

x = sympy.Symbol("x")
PRIME = 2**31 - 1

integer = st.builds(lambda c, k: c * k, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 7, 12, PRIME]))
polys = st.lists(integer, min_size=0, max_size=7).map(P.trim)
factors = st.lists(integer, min_size=2, max_size=4).map(P.trim).filter(lambda f: len(f) > 1)


def oracle(p, q):
    """sympy's gcd over QQ, lowest degree first, as the integer multiple
    that is primitive with a positive leading coefficient."""
    f, g = (sympy.Poly(list(reversed(c)) or [0], x, domain="QQ") for c in (p, q))
    h = f.gcd(g)
    if h.is_zero:
        return P.ZERO
    cs = [int(c) for c in reversed(h.clear_denoms()[1].all_coeffs())]
    k = math.gcd(*cs) * (1 if cs[-1] > 0 else -1)
    return tuple(c // k for c in cs)


@settings(max_examples=300, deadline=None)
@given(polys, polys)
def test_gcd_matches_sympy(p, q):
    g = P.gcd(p, q)
    assert g == oracle(p, q)
    assert all(type(c) is int for c in g)


@settings(max_examples=300, deadline=None)
@given(polys.filter(any), polys.filter(any), factors)
def test_planted_factor_is_found(p, q, f):
    a, b = P.mul(p, f), P.mul(q, f)
    g = P.gcd(a, b)
    assert g == oracle(a, b)
    assert P.divmod_(g, f)[1] == P.ZERO


def _p(*cs):
    """The integer polynomial that rational coefficients cs clear to:
    their multiple by the least common denominator."""
    m = math.lcm(*(Fraction(c).denominator for c in cs))
    return P.trim(tuple(int(Fraction(c) * m) for c in cs))


# The ids name the rational inputs; each case holds their cleared
# integer multiples, as a germ built from those rationals stores them.
PINNED = {
    # the prime divides both scaled leading coefficients; the common
    # factor PRIME*x + 1 is 1 modulo the prime
    "prime-divides-leading-coefficient": (
        P.mul(_p(1, PRIME), _p(2, 1)), P.mul(_p(1, PRIME), _p(3, 1))),
    # the prime divides every denominator, so clearing removes it: the
    # certificate applies, or finds x + 1 mod the prime
    "prime-divides-a-denominator": (
        _p(Fraction(1, PRIME), Fraction(1, PRIME)),
        _p(Fraction(3, PRIME), Fraction(1, PRIME), Fraction(2, PRIME))),
    "prime-divides-a-denominator-common-factor": (
        _p(*(Fraction(c, PRIME) for c in P.mul(_p(1, 1), _p(2, 1)))),
        _p(*(Fraction(5 * c, PRIME) for c in P.mul(_p(1, 1), _p(3, 1))))),
    # a lower denominator only: the scaled leading coefficient is PRIME*k
    "prime-divides-a-lower-denominator": (
        P.mul(_p(Fraction(1, PRIME), 1), _p(2, 1)), P.mul(_p(Fraction(1, PRIME), 1), _p(5, 0, 1))),
    # coprime over Q, but both are x modulo the prime
    "nontrivial-gcd-mod-prime": (_p(0, 1), _p(PRIME, 1)),
    "nontrivial-gcd-mod-prime-quadratic": (_p(1, 0, 1), _p(1 + PRIME, PRIME, 1)),
    "constant-and-polynomial": (_p(Fraction(5, 3)), _p(1, 2, 3)),
    "polynomial-and-constant": (_p(1, 2, 3), _p(PRIME)),
    "two-constants": (_p(Fraction(-2, 7)), _p(4)),
    "zero-and-polynomial": (P.ZERO, _p(Fraction(1, 2), 3)),
    "zero-and-zero": (P.ZERO, P.ZERO),
}


@pytest.mark.parametrize("p, q", PINNED.values(), ids=PINNED.keys())
def test_pinned_cases_match_sympy(p, q):
    assert P.gcd(p, q) == oracle(p, q)
    assert P.gcd(q, p) == oracle(p, q)


def test_leading_coefficient_check_keeps_the_common_factor():
    p, q = PINNED["prime-divides-leading-coefficient"]
    assert P.gcd(p, q) == (1, PRIME)
    p, q = PINNED["prime-divides-a-lower-denominator"]
    assert P.gcd(p, q) == (1, PRIME)
