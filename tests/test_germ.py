import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_germ, random_limited_germ
from hyperq import _poly as P
from hyperq import measure as M
from hyperq.errors import DegenerateDiagonalError, EngineError, ZeroGermError
from hyperq.germ import (
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_FAMILY_WORK,
    NEG_INF,
    OMEGA,
    POS_INF,
    BivariateGerm,
    Germ,
    GermClass,
    arith,
    classify,
    compare,
    diagonal,
    eventually_threshold,
    parse_family,
    parse_germ,
    shadow,
    valuation,
)

w = OMEGA
one = Germ.constant(1)


def frac_strategy():
    return st.fractions(min_value=-9, max_value=9, max_denominator=9)


def poly_strategy(max_deg=2):
    return st.lists(frac_strategy(), min_size=1, max_size=max_deg + 1).map(tuple)


def germ_strategy():
    return (
        st.tuples(poly_strategy(), poly_strategy())
        .filter(lambda t: any(c != 0 for c in t[1]))
        .map(lambda t: Germ(*t))
    )


# -- arith ---------------------------------------------------------------


def test_mul_inverse_pair():
    assert arith(w, one / w, "mul") == one


def test_sub_shift():
    assert arith(w + 1, w, "sub") == one


def test_polynomial_division_reduces():
    # oracle: evaluate both sides exactly at five integer points
    lhs = arith((w ** 2 - 1) / (w + 1), one, "add")
    for n in (3, 5, 10, 17, 101):
        assert lhs.evaluate(n) == Fraction(n * n - 1, n + 1) + 1 == Fraction(n)
    assert lhs == w


def test_division_by_zero_germ():
    with pytest.raises(ZeroDivisionError):
        arith(one, Germ.constant(0), "div")


def test_canonical_form_is_reduced_and_primitive():
    g = Germ((2, 2), (4, 4))  # (2w+2)/(4w+4)
    assert g == Germ.constant(Fraction(1, 2))
    assert (g.num, g.den) == ((1,), (2,))
    h = Germ((2,), (2, -2))  # 2/(2-2w): content and denominator sign go
    assert (h.num, h.den) == ((-1,), (-1, 1))
    assert h.evaluate(3) == Fraction(1, -2)
    k = Germ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 4),))  # (1/2 + w/3)/(3/4)
    assert (k.num, k.den) == ((6, 4), (9,))
    assert all(type(c) is int for c in k.num + k.den)


# -- compare ---------------------------------------------------------------


def test_unlimited_exceeds_standard():
    assert compare(w, Germ.constant(1000000)) > 0


def test_positive_infinitesimal():
    assert compare(one / w, Germ.constant(0)) > 0


def test_compare_derived_stable_sign():
    a = (2 * w + 3) / (w + 1)
    b = Germ.constant(2)
    # oracle: the sign stabilises under exact evaluation
    for n in (10, 100, 1000):
        assert a.evaluate(n) - b.evaluate(n) > 0
    assert compare(a, b) > 0


@given(germ_strategy(), germ_strategy(), germ_strategy())
@settings(max_examples=60, deadline=None)
def test_order_is_total_and_translation_invariant(a, b, c):
    assert compare(a, b) == -compare(b, a)
    if compare(a, b) < 0:
        assert compare(a + c, b + c) < 0


@given(germ_strategy(), germ_strategy(), germ_strategy())
@settings(max_examples=60, deadline=None)
def test_order_respects_positive_scaling(a, b, c):
    if compare(a, b) < 0 and compare(c, Germ.constant(0)) > 0:
        assert compare(a * c, b * c) < 0


# -- valuation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "g, expected",
    [
        (w, 1),
        (Germ.constant(3) + one / w, 0),
        ((w + 2) / (w ** 3 - w), -2),
    ],
)
def test_valuation_examples(g, expected):
    assert valuation(g) == expected


def test_valuation_of_zero_is_bottom():
    assert valuation(Germ.constant(0)) is None


@given(germ_strategy(), germ_strategy())
@settings(max_examples=80, deadline=None)
def test_valuation_additivity(a, b):
    if not a.is_zero() and not b.is_zero():
        assert valuation(a * b) == valuation(a) + valuation(b)
        s = a + b
        if not s.is_zero():
            assert valuation(s) <= max(valuation(a), valuation(b))


# -- shadow -------------------------------------------------------------------


def test_shadow_examples():
    assert shadow(one / w) == 0
    assert shadow(w) is POS_INF
    assert shadow(-w) is NEG_INF


def test_shadow_derived_by_numeric_convergence():
    g = (2 * w ** 2 + 3) / (w ** 2 - w)
    # oracle: exact evaluation approaches the claimed value
    assert abs(g.evaluate(10 ** 3) - 2) < Fraction(1, 100)
    assert abs(g.evaluate(10 ** 6) - 2) < Fraction(1, 10 ** 5)
    assert shadow(g) == 2


@given(germ_strategy(), germ_strategy())
@settings(max_examples=80, deadline=None)
def test_shadow_is_ring_homomorphism_on_limited(a, b):
    if (valuation(a) or 0) <= 0 and (valuation(b) or 0) <= 0:
        assert shadow(a + b) == shadow(a) + shadow(b)
        assert shadow(a * b) == shadow(a) * shadow(b)


def test_zero_shadow_nonzero_germ_is_infinitesimal():
    g = one / (w ** 2 + 1)
    assert shadow(g) == 0
    assert classify(g) is GermClass.INFINITESIMAL_NONZERO


# -- classify -------------------------------------------------------------------


@pytest.mark.parametrize(
    "g, tag",
    [
        (Germ.constant(Fraction(7, 3)), GermClass.STANDARD_NONZERO),
        (one / w ** 2, GermClass.INFINITESIMAL_NONZERO),
        (Germ.constant(2) + 5 / w, GermClass.APPRECIABLE_NONSTANDARD),
        (Germ.constant(0), GermClass.ZERO),
        (w ** 2, GermClass.UNLIMITED_POSITIVE),
        (-w, GermClass.UNLIMITED_NEGATIVE),
    ],
)
def test_classify_examples(g, tag):
    assert classify(g) is tag


def test_appreciable_case_is_not_constant():
    g = Germ.constant(2) + 5 / w
    assert valuation(g) == 0 and shadow(g) == 2 and not g.is_constant()


# -- eventual thresholds ----------------------------------------------------------


def test_threshold_simple_root():
    n0 = eventually_threshold(w - 5)
    assert n0 >= 6
    for n in range(n0, n0 + 30):
        assert (w - 5).evaluate(n) > 0


def test_threshold_two_roots():
    g = (w - 100) * (w - 2)
    n0 = eventually_threshold(g)
    assert n0 >= 101
    # oracle: exact sign at every integer up to and past the bound
    signs_past = {g.evaluate(n) > 0 for n in range(n0, n0 + 50)}
    assert signs_past == {True}
    assert g.evaluate(50) < 0  # sign genuinely flips before the roots


def test_threshold_positive_infinitesimal():
    n0 = eventually_threshold(one / w)
    assert n0 >= 1
    for n in range(n0, n0 + 10):
        assert (one / w).evaluate(n) > 0


def test_threshold_rejects_zero():
    with pytest.raises(ZeroGermError):
        eventually_threshold(Germ.constant(0))


def test_compare_agrees_with_evaluation_past_threshold():
    rng = random.Random(7)
    for _ in range(40):
        a, b = random_germ(rng), random_germ(rng)
        d = a - b
        if d.is_zero():
            continue
        n0 = eventually_threshold(d)
        sign = compare(a, b)
        for n in (n0, n0 + 1, n0 + 13, 2 * n0 + 5):
            value = d.evaluate(n)
            assert (value > 0) == (sign > 0) and value != 0


# -- diagonal -----------------------------------------------------------------------


def test_diagonal_substitution():
    f = parse_family("k/(k+1)")
    assert diagonal(f) == w / (w + 1)


def test_diagonal_with_w_term():
    f = parse_family("k/(k+1) + 1/w")
    d = diagonal(f)
    assert d == w / (w + 1) + one / w
    assert shadow(d) == 1


def test_diagonal_product():
    f = parse_family("1/(k*w)")
    assert diagonal(f) == one / w ** 2


def test_diagonal_degenerate():
    # denominator k - w dies on the diagonal
    f = parse_family("1/(k - w)")
    with pytest.raises(DegenerateDiagonalError):
        diagonal(f)


def test_family_instantiation():
    f = parse_family("k/(k+1) + 1/w")
    assert f.at_k(3) == Germ.constant(Fraction(3, 4)) + one / w


# -- field axioms (randomized, structural equality) ---------------------------------


def test_field_axioms_random_sample():
    rng = random.Random(11)
    zero, unit = Germ.constant(0), one
    for _ in range(60):
        a, b, c = (random_germ(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * unit == a
        assert a - a == zero
        if not a.is_zero():
            assert a * (unit / a) == unit


def test_hash_consistent_with_equality():
    a = (w ** 2 - 1) / (w + 1)
    b = w - 1
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("q", [3, Fraction(1, 2), 0, -7])
def test_constant_hash_agrees_with_the_number(q):
    g = Germ.constant(q)
    assert g == q and hash(g) == hash(q)
    assert q in {g} and g in {q}


def test_pow_negative_exponent():
    assert w ** -2 == one / w ** 2


def test_pow_by_squaring_matches_repeated_products():
    p = (3, -6, 1)
    acc = P.ONE
    for n in range(12):
        assert P.pow_(p, n) == acc
        acc = P.mul(acc, p)
    f = parse_family("(k+w)/(k-1)")
    acc = BivariateGerm.constant(1)
    for n in range(6):
        assert f ** n == acc and (f ** n).at_k(3) == f.at_k(3) ** n
        acc = acc * f


@pytest.mark.parametrize("n", [MAX_EXPONENT + 1, -MAX_EXPONENT - 1])
def test_exponent_beyond_the_limit_is_refused(n):
    with pytest.raises(EngineError, match=f"limit of {MAX_EXPONENT}"):
        w ** n
    with pytest.raises(EngineError, match=f"limit of {MAX_EXPONENT}"):
        parse_family("k*w") ** n
    assert w ** -MAX_EXPONENT * w ** MAX_EXPONENT == one


def test_degree_beyond_the_limit_is_refused_before_it_is_computed(monkeypatch):
    def refuse(*args):
        raise AssertionError("a polynomial product was computed")

    a = w ** (MAX_DEGREE // 2) * w ** (MAX_DEGREE // 2)
    f = parse_family("k*w") ** (MAX_DEGREE // 4)
    g = f * f  # total degree MAX_DEGREE
    assert P.degree(a.num) == P.b_degree(g.num) == MAX_DEGREE
    inv_a, inv_x, inv_f, fw = 1 / a, 1 / (w + 1), 1 / f, parse_family("w")
    for name in ("mul", "mul_add", "pow_", "b_mul", "b_pow"):
        monkeypatch.setattr(P, name, refuse)
    for build in (lambda: a * w, lambda: a / inv_x, lambda: a + inv_x, lambda: a ** 2,
                  lambda: inv_a ** -2, lambda: g * f, lambda: g / inv_f, lambda: g + inv_f,
                  lambda: g ** 2, lambda: fw * g):
        with pytest.raises(EngineError, match=f"exceeds the limit of {MAX_DEGREE}"):
            build()


def test_family_work_beyond_the_limit_is_refused_before_it_is_computed(monkeypatch):
    def refuse(*args):
        raise AssertionError("a family product was computed")

    # 100 coefficients in k, each a polynomial in w of 100 nonzero terms
    dense = BivariateGerm(tuple(tuple(range(1, 101)) for _ in range(100)))
    assert (dense * 2).at_k(0) == Germ(tuple(range(2, 202, 2)))  # 10^4 x 1 pairs: allowed
    for name in ("b_mul", "b_pow"):
        monkeypatch.setattr(P, name, refuse)
    for build in (lambda: dense + dense, lambda: dense * dense, lambda: dense / dense,
                  lambda: dense ** 2, lambda: dense ** -2):
        with pytest.raises(EngineError, match=f"exceeds the limit of {MAX_FAMILY_WORK}"):
            build()


# -- fast paths: no gcd beside a constant, no product to compare -----------


@pytest.fixture
def poly_calls(monkeypatch):
    """Counts of the calls of _poly.gcd, _poly.mul and _poly.divmod_ from
    here on."""
    calls = {"gcd": 0, "mul": 0, "divmod_": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(P, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(P, name, counted)
    return calls


def test_cantor_sweep_runs_no_gcd(poly_calls):
    assert M.sigma_limit(M.cantor_family(), 8).limit == 0
    assert poly_calls["gcd"] == 0


def test_compare_multiplies_no_polynomials(poly_calls, monkeypatch):
    consts = [Germ.constant(Fraction(i, 7)) for i in range(-50, 50)]
    a, b = w ** 2, w + 1
    poly_calls["mul"] = 0
    built = []
    monkeypatch.setattr(Germ, "__init__", lambda *args: built.append(args))
    assert [compare(x, consts[51]) for x in consts] == [-1] * 51 + [0] + [1] * 48
    assert compare(a, b) == 1 and compare(b, a) == -1
    assert compare(a, 0) == 1 and compare(consts[0], Fraction(-50, 7)) == 0
    assert poly_calls["mul"] == 0 and built == []


def test_sum_over_a_shared_denominator(poly_calls):
    a, b = w / (w + 1), 1 / (w + 1)
    poly_calls["mul"] = poly_calls["gcd"] = 0
    assert a + b == one  # the gcd still cancels w + 1
    assert poly_calls["mul"] == 0 and poly_calls["gcd"] == 1


def test_negation_and_powers_run_no_gcd(poly_calls):
    g = parse_germ("(w^2+3)/(w+1)")
    poly_calls["gcd"] = 0
    assert (-g).num == P.neg(g.num) and (-g).den == g.den
    big = g ** 60
    assert poly_calls["gcd"] == 0
    assert big.den == P.pow_(g.den, 60) and big.evaluate(2) == g.evaluate(2) ** 60


def test_difference_runs_one_gcd(poly_calls):
    a, b = parse_germ("(w^2+1)/(w^3+2)"), parse_germ("(w+3)/(w^2-5)")
    poly_calls["gcd"] = 0
    d = a - b
    assert poly_calls["gcd"] == 1
    assert d.evaluate(7) == a.evaluate(7) - b.evaluate(7)


def test_coprime_gcd_is_certified_without_division(poly_calls):
    rng = random.Random(32)
    a, b = (P.trim(tuple(rng.randint(-99, 99) * rng.randint(1, 9) for _ in range(32))
                   + (rng.randint(1, 9),)) for _ in range(2))
    assert P.degree(a) == P.degree(b) == 32
    assert P.gcd(a, b) == P.ONE
    assert poly_calls["divmod_"] == 0
    # a common factor still reaches the primitive PRS
    f = (1, 3)
    assert P.gcd(P.mul(a, f), P.mul(b, f)) == f
    assert poly_calls["divmod_"] > 0


def test_shadow_of_limited_is_between_bounds():
    rng = random.Random(3)
    for _ in range(30):
        g = random_limited_germ(rng)
        sh = shadow(g)
        assert isinstance(sh, Fraction)


def test_bivariate_equality_cross_multiplies():
    assert parse_family("k/(k+1)") == parse_family("(2*k)/(2*k+2)")


@pytest.mark.parametrize(
    "left, right", [("k/k", "1"), ("k/(k+1)", "(2*k)/(2*k+2)"), ("(k*w+1)/(k*w)", "(k*w^2+w)/(k*w^2)")]
)
def test_bivariate_hash_agrees_with_equality(left, right):
    a, b = parse_family(left), parse_family(right)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_bivariate_pow_and_div():
    f = parse_family("(k+1)^2") / parse_family("k+1")
    assert f.at_k(4) == Germ.constant(5)
