"""The integer kernels of _poly against schoolbook Fraction loops.

mul, divmod_, eval_at, b_eval_first and the fused mul_add and cross_sign
compute on integer polynomials, and gcd falls back to the primitive PRS;
the schoolbook Fraction loops and Euclid over Q below are the reference
they must match exactly (divmod_ up to its positive multiplier d, gcd up
to the rational factor that makes it primitive), on zero, constants,
coefficients that are multiples of 2^31 - 1, planted common factors,
and negative and fractional points.
"""

import math
import random
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import _poly as P

PRIME = 2**31 - 1


# -- the reference: the Fraction loops --------------------------------


def F(p):
    """An integer polynomial as a tuple of Fractions."""
    return tuple(Fraction(c) for c in p)


def ref_mul(p, q):
    if not p or not q:
        return P.ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return P.trim(out)


def ref_divmod(p, q):
    dq, cq = len(q) - 1, q[-1]
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - dq, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + dq]
        if c:
            c = quo[k] = c / cq
            for i in range(dq):
                rem[k + i] -= c * q[i]
    return P.trim(quo), P.trim(rem[:dq])


def ref_eval_at(p, x):
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ref_gcd(p, q):
    """Euclid over Q, made monic."""
    a, b = F(p), F(q)
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a) if a else P.ZERO


def ref_b_eval_first(a, x):
    x = Fraction(x)
    acc = P.ZERO
    for p in reversed(a):
        acc = P.add(tuple(c * x for c in acc), F(p))
    return acc


def primitive_of(p):
    """The integer multiple of a rational polynomial that is primitive
    with a positive leading coefficient: gcd's normal form."""
    if not p:
        return P.ZERO
    m = math.lcm(*(Fraction(c).denominator for c in p))
    cs = [int(c * m) for c in p]
    g = math.gcd(*cs) * (1 if cs[-1] > 0 else -1)
    return tuple(c // g for c in cs)


# -- inputs ------------------------------------------------------------

integer = st.builds(
    lambda c, k: c * k,
    st.integers(-10**6, 10**6) | st.integers(-9, 9),
    st.sampled_from([1, 1, 1, 2, 3, 12, PRIME, 2 * PRIME, PRIME**2]),
)
polys = st.lists(integer, min_size=0, max_size=9).map(P.trim)
nonzero = polys.filter(bool)
factors = st.lists(integer, min_size=2, max_size=5).map(P.trim).filter(lambda f: len(f) > 1)
points = st.builds(
    Fraction, st.integers(-50, 50), st.sampled_from([1, 1, 2, 3, 7, PRIME])
) | st.integers(-50, 50)


def canonical(p):
    return isinstance(p, tuple) and all(type(c) is int for c in p) and (not p or p[-1] != 0)


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_mul_matches_the_fraction_loop(p, q):
    got = P.mul(p, q)
    assert got == ref_mul(F(p), F(q)) and canonical(got)


@settings(max_examples=200, deadline=None)
@given(polys, nonzero)
def test_divmod_matches_the_fraction_loop(p, q):
    quo, rem, d = P.divmod_(p, q)
    assert type(d) is int and d > 0 and canonical(quo) and canonical(rem)
    ref_quo, ref_rem = ref_divmod(F(p), F(q))
    assert P.trim(Fraction(c, d) for c in quo) == ref_quo
    assert tuple(Fraction(c, d) for c in rem) == ref_rem
    assert P.add(P.mul(quo, q), rem) == P.scale(p, d)


@settings(max_examples=200, deadline=None)
@given(nonzero, factors, polys)
def test_exact_division_by_a_planted_factor(p, f, r):
    # quotient p and remainder r of f * p + r, with deg r < deg f; an
    # integral quotient needs no multiplier
    r = r[: len(f) - 1]
    quo, rem, d = P.divmod_(P.add(P.mul(f, p), r), f)
    assert tuple(Fraction(c, d) for c in quo) == F(p)
    assert tuple(Fraction(c, d) for c in rem) == F(P.trim(r))
    if not P.trim(r):
        assert (quo, rem, d) == (p, P.ZERO, 1)


@settings(max_examples=200, deadline=None)
@given(polys, points)
def test_eval_at_matches_the_fraction_loop(p, x):
    got = P.eval_at(p, x)
    assert got == ref_eval_at(F(p), x) and type(got) is Fraction


@settings(max_examples=150, deadline=None)
@given(polys, polys)
def test_gcd_matches_euclid_over_q(p, q):
    got = P.gcd(p, q)
    assert got == primitive_of(ref_gcd(p, q)) and canonical(got)
    assert not got or (math.gcd(*got) == 1 and got[-1] > 0)


@settings(max_examples=150, deadline=None)
@given(nonzero, nonzero, factors)
def test_gcd_with_a_planted_factor_matches_euclid_over_q(p, q, f):
    a, b = P.mul(p, f), P.mul(q, f)
    got = P.gcd(a, b)
    assert got == primitive_of(ref_gcd(a, b))
    assert ref_divmod(F(got), F(f))[1] == P.ZERO
    assert ref_divmod(F(a), F(got))[1] == P.ZERO


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys, polys)
def test_fused_cross_products_match_the_fraction_loop(p, q, r, s):
    got = P.mul_add(p, q, r, s)
    assert got == P.add(ref_mul(F(p), F(q)), ref_mul(F(r), F(s))) and canonical(got)
    d = P.sub(ref_mul(F(p), F(q)), ref_mul(F(r), F(s)))
    assert P.cross_sign(p, q, r, s) == ((d[-1] > 0) - (d[-1] < 0) if d else 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(polys, max_size=5).map(P.b_trim), points)
def test_b_eval_first_matches_the_fraction_loop(a, x):
    # v^n times the value at x = u / v, n the degree in the first variable
    got = P.b_eval_first(a, x)
    scale = Fraction(x).denominator ** max(len(a) - 1, 0)
    assert got == tuple(c * scale for c in ref_b_eval_first(a, x)) and canonical(got)


def test_prime_multiples_in_every_denominator():
    # the integer multiples of rational polynomials whose every
    # denominator is a multiple of the certificate's prime
    f = (Fraction(1, PRIME), Fraction(-3, 2 * PRIME), Fraction(1, PRIME**2))
    fp, fq = ref_mul(f, (Fraction(5, PRIME), Fraction(1))), ref_mul(f, (Fraction(-2), Fraction(7, PRIME)))
    p, q = primitive_of(fp), P.scale(primitive_of(fq), PRIME)
    assert P.gcd(p, q) == primitive_of(ref_gcd(p, q)) == primitive_of(f)
    quo, rem, d = P.divmod_(p, primitive_of(f))
    assert (tuple(Fraction(c, d) for c in quo), rem) == ref_divmod(F(p), F(primitive_of(f)))
    for x in (Fraction(-1, PRIME), Fraction(3, 2), -4):
        assert P.eval_at(p, x) == ref_eval_at(F(p), x)


def _random_int_poly(rng, degree):
    return tuple(rng.randint(-99, 99) for _ in range(degree)) + (rng.choice((-99, 99)),)


def test_gcd_of_a_large_common_factor_is_fast():
    # two degree-82 polynomials sharing a degree-50 factor: the mod-p
    # certificate fails, and the primitive PRS keeps its coefficients
    # small where Euclid over Q took about 0.7 s
    rng = random.Random(82)
    f = P.scale(_random_int_poly(rng, 50), 3)
    a = P.mul(f, _random_int_poly(rng, 32))
    b = P.mul(f, P.scale(_random_int_poly(rng, 32), 14))
    assert len(a) == len(b) == 83
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        g = P.gcd(a, b)
        best = min(best, time.process_time() - start)
    assert best < 0.1
    assert P.degree(g) >= 50 and ref_divmod(F(g), F(f))[1] == P.ZERO
    assert ref_divmod(F(a), F(g))[1] == ref_divmod(F(b), F(g))[1] == P.ZERO
