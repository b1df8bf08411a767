"""The integer kernels of _poly against the Fraction loops they replaced.

mul, divmod_, eval_at, b_eval_first and the fused mul_add and cross_sign
compute over Z, and gcd falls back to the primitive PRS; the schoolbook
Fraction loops and Euclid over Q below are the reference they must match
exactly, on zero, constants, denominators
that are multiples of 2^31 - 1, planted common factors, and negative and
fractional points.
"""

import random
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import _poly as P

PRIME = 2**31 - 1


# -- the reference: the Fraction loops, as they were -------------------


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
    a, b = p, q
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return P.monic(a)


def ref_b_eval_first(a, x):
    x = Fraction(x)
    acc = P.ZERO
    for p in reversed(a):
        acc = P.add(P.scale(acc, x), p)
    return acc


# -- inputs ------------------------------------------------------------

rational = st.builds(
    Fraction,
    st.integers(-10**6, 10**6) | st.integers(-9, 9),
    st.sampled_from([1, 1, 1, 2, 3, 12, PRIME, 2 * PRIME, PRIME**2]),
)
polys = st.lists(rational, min_size=0, max_size=9).map(P.trim)
nonzero = polys.filter(bool)
factors = st.lists(rational, min_size=2, max_size=5).map(P.trim).filter(lambda f: len(f) > 1)
points = st.builds(
    Fraction, st.integers(-50, 50), st.sampled_from([1, 1, 2, 3, 7, PRIME])
) | st.integers(-50, 50)


def canonical(p):
    return isinstance(p, tuple) and all(type(c) is Fraction for c in p) and (not p or p[-1] != 0)


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_mul_matches_the_fraction_loop(p, q):
    got = P.mul(p, q)
    assert got == ref_mul(p, q) and canonical(got)


@settings(max_examples=200, deadline=None)
@given(polys, nonzero)
def test_divmod_matches_the_fraction_loop(p, q):
    quo, rem = P.divmod_(p, q)
    assert (quo, rem) == ref_divmod(p, q)
    assert canonical(quo) and canonical(rem)


@settings(max_examples=200, deadline=None)
@given(nonzero, factors, polys)
def test_exact_division_by_a_planted_factor(p, f, r):
    # quotient p and remainder r of f * p + r, with deg r < deg f
    r = r[: len(f) - 1]
    assert P.divmod_(P.add(ref_mul(f, p), r), f) == (p, P.trim(r))


@settings(max_examples=200, deadline=None)
@given(polys, points)
def test_eval_at_matches_the_fraction_loop(p, x):
    got = P.eval_at(p, x)
    assert got == ref_eval_at(p, x) and type(got) is Fraction


@settings(max_examples=150, deadline=None)
@given(polys, polys)
def test_gcd_matches_euclid_over_q(p, q):
    got = P.gcd(p, q)
    assert got == ref_gcd(p, q) and canonical(got)


@settings(max_examples=150, deadline=None)
@given(nonzero, nonzero, factors)
def test_gcd_with_a_planted_factor_matches_euclid_over_q(p, q, f):
    a, b = ref_mul(p, f), ref_mul(q, f)
    got = P.gcd(a, b)
    assert got == ref_gcd(a, b)
    assert ref_divmod(got, f)[1] == P.ZERO and ref_divmod(a, got)[1] == P.ZERO


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys, polys)
def test_fused_cross_products_match_the_fraction_loop(p, q, r, s):
    got = P.mul_add(p, q, r, s)
    assert got == P.add(ref_mul(p, q), ref_mul(r, s)) and canonical(got)
    d = P.sub(ref_mul(p, q), ref_mul(r, s))
    assert P.cross_sign(p, q, r, s) == ((d[-1] > 0) - (d[-1] < 0) if d else 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(polys, max_size=5).map(P.b_trim), points)
def test_b_eval_first_matches_the_fraction_loop(a, x):
    got = P.b_eval_first(a, x)
    assert got == ref_b_eval_first(a, x) and canonical(got)


def test_prime_multiples_in_every_denominator():
    # every coefficient's denominator is a multiple of the certificate's prime
    f = (Fraction(1, PRIME), Fraction(-3, 2 * PRIME), Fraction(1, PRIME**2))
    p, q = ref_mul(f, (Fraction(5, PRIME), Fraction(1))), ref_mul(f, (Fraction(-2), Fraction(7, PRIME)))
    assert P.gcd(p, q) == ref_gcd(p, q) == P.monic(f)
    assert P.divmod_(p, f) == ref_divmod(p, f)
    for x in (Fraction(-1, PRIME), Fraction(3, 2), -4):
        assert P.eval_at(p, x) == ref_eval_at(p, x)


def _random_int_poly(rng, degree):
    return tuple(Fraction(rng.randint(-99, 99)) for _ in range(degree)) + (Fraction(rng.choice((-99, 99))),)


def test_gcd_of_a_large_common_factor_is_fast():
    # two degree-82 polynomials sharing a degree-50 factor: the mod-p
    # certificate fails, and the primitive PRS keeps its coefficients
    # small where Euclid over Q took about 0.7 s
    rng = random.Random(82)
    f = P.scale(_random_int_poly(rng, 50), Fraction(1, 3))
    a = ref_mul(f, _random_int_poly(rng, 32))
    b = ref_mul(f, P.scale(_random_int_poly(rng, 32), Fraction(2, 7)))
    assert len(a) == len(b) == 83
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        g = P.gcd(a, b)
        best = min(best, time.process_time() - start)
    assert best < 0.1
    assert P.degree(g) >= 50 and ref_divmod(g, P.monic(f))[1] == P.ZERO
    assert ref_divmod(a, g)[1] == ref_divmod(b, g)[1] == P.ZERO
