"""Exact sign decisions on the integers >= start, checked against sympy
(a test-only oracle) and brute-force scans past its real roots."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperq import _poly as P
from hyperq import coding as C
from hyperq.errors import NonMonotoneGeneratorError
from hyperq.germ import Germ

sympy = pytest.importorskip("sympy")

x = sympy.Symbol("x")


def _poly_of(coeffs):
    return P.trim(tuple(Fraction(c) for c in coeffs))


def _scan_bound(expr, start):
    """An integer past every real root of the polynomial expr in x, and
    at least start: sign changes happen only below it."""
    roots = sympy.real_roots(sympy.Poly(expr, x)) if expr.free_symbols else []
    return max([start] + [int(sympy.floor(r)) + 2 for r in roots])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6), st.integers(-5, 30))
@example([3, -1], 3)  # a simple root at start, negative after it
@example([16, -20, 8, -1], 2)  # -(x-2)^2 (x-4): a double root at start
def test_least_negative_matches_brute_force(coeffs, start):
    expr = sum(c * x ** i for i, c in enumerate(coeffs))
    expected = None
    if any(coeffs):
        for k in range(start, _scan_bound(expr, start) + 1):
            if expr.subs(x, k) < 0:
                expected = k
                break
    assert P.least_negative(_poly_of(coeffs), start) == expected


def _direction_oracle(num, den, start):
    """("pole", k), ("turn", k) or ("ok", sign) for k -> num(k)/den(k) on
    the integers >= start, from sympy's reduced form and a scan past the
    real roots of its steps."""
    g = sympy.cancel(sum(c * x ** i for i, c in enumerate(num))
                     / sum(c * x ** i for i, c in enumerate(den)))
    g_den = sympy.fraction(g)[1]
    poles = [r for r in sympy.Poly(g_den, x).ground_roots() if r.is_integer and r >= start]
    if poles:
        return ("pole", min(poles))
    step_num, step_den = sympy.fraction(sympy.cancel(g.subs(x, x + 1) - g))
    if step_num == 0:
        return ("ok", 0)
    sign = 1 if sympy.Poly(step_num, x).LC() * sympy.Poly(step_den, x).LC() > 0 else -1
    for k in range(start, _scan_bound(step_num * step_den, start) + 1):
        if sign * (g.subs(x, k + 1) - g.subs(x, k)) < 0:
            return ("turn", k)
    return ("ok", sign)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=3).filter(any),
       st.lists(st.integers(-20, 20), min_size=1, max_size=3).filter(any),
       st.none() | st.integers(-10, 40),
       st.integers(-5, 30))
def test_direction_matches_independent_oracle(num, den, root, start):
    if root is not None:  # poles at integers are rare among random denominators
        den = [a - root * b for a, b in zip([0] + den, den + [0])]
    kind, value = _direction_oracle(num, den, start)
    g = Germ(_poly_of(num), _poly_of(den))
    if kind == "ok":
        assert C._direction(g, start) == value
    else:
        with pytest.raises(NonMonotoneGeneratorError, match=f"k={value}$"):
            C._direction(g, start)
