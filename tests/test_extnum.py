import random
from fractions import Fraction

import pytest

from helpers import random_germ
from hyperq import extnum as X
from hyperq.germ import OMEGA, Germ, compare, is_infinitesimal, is_limited, valuation

w = OMEGA
one = Germ.constant(1)


def sample_neutrix_members(n: X.Neutrix, rng, count=20):
    """Concrete germs inside a neutrix, spanning its grades."""
    if n.kind == "zero":
        return [Germ.constant(0)] * count
    out = []
    while len(out) < count:
        mult = random_germ(rng, max_deg=1)
        if mult.is_zero():
            continue
        v = valuation(mult)
        if v > 0:
            mult = mult / w ** v  # force it limited
        if n.kind == "graded":
            out.append(mult * w ** n.grade)
        else:
            out.append(mult * w ** rng.randint(-3, 3))
    return out


def test_monad_closed_under_addition():
    rng = random.Random(41)
    for u in sample_neutrix_members(X.M0, rng):
        for v in sample_neutrix_members(X.M0, rng, 5):
            assert X.M0.contains(u + v)
    assert X.neutrix_add(X.M0, X.M0) == X.M0


def test_scaling_monad_by_omega_gives_galaxy():
    # brute Minkowski check: infinitesimals times w are limited,
    # and a limited target like 1/2 is realised
    rng = random.Random(42)
    assert X.neutrix_scale(w, X.M0) == X.G0
    for u in sample_neutrix_members(X.M0, rng):
        assert X.G0.contains(u * w)
        assert is_limited(u * w)
    half = Germ.constant(Fraction(1, 2))
    assert X.M0.contains(half / w)
    assert (half / w) * w == half


def test_monad_times_galaxy_is_monad():
    rng = random.Random(43)
    assert X.neutrix_mul(X.M0, X.G0) == X.M0
    for u in sample_neutrix_members(X.M0, rng, 10):
        for v in sample_neutrix_members(X.G0, rng, 5):
            assert is_infinitesimal(u * v)
            assert X.M0.contains(u * v)


def test_neutrix_membership_by_valuation_oracle():
    rng = random.Random(44)
    for _ in range(50):
        g = random_germ(rng, nonzero=True)
        grade = rng.randint(-3, 3)
        assert X.Neutrix(grade).contains(g) == (valuation(g) <= grade)


def test_neutrix_add_mul_identities():
    assert X.neutrix_add(X.ZERO_N, X.G0) == X.G0
    assert X.neutrix_add(X.ALL_N, X.M0) == X.ALL_N
    assert X.neutrix_mul(X.ZERO_N, X.ALL_N) == X.ZERO_N
    assert X.neutrix_mul(X.Neutrix(-1), X.Neutrix(0)) == X.Neutrix(-1)
    assert X.neutrix_scale(Germ.constant(0), X.G0) == X.ZERO_N


def _per_kind_add(n, m):
    if "all" in (n.kind, m.kind):
        return X.ALL_N
    if n.kind == "zero":
        return m
    return n if m.kind == "zero" else X.Neutrix(max(n.grade, m.grade))


def _per_kind_mul(n, m):
    if "zero" in (n.kind, m.kind):
        return X.ZERO_N
    return X.ALL_N if "all" in (n.kind, m.kind) else X.Neutrix(n.grade + m.grade)


def _per_kind_scale(a, n):
    if a.is_zero() or n.kind == "zero":
        return X.ZERO_N
    return X.ALL_N if n.kind == "all" else X.Neutrix(n.grade + valuation(a))


def test_neutrix_grades_agree_with_the_per_kind_definitions():
    # {0} is grade -inf and the whole field +inf: arithmetic is max and +
    rng = random.Random(45)
    neutrices = [X.ZERO_N, X.ALL_N] + [X.Neutrix(g) for g in range(-3, 4)]
    assert [n.kind for n in neutrices[:3]] == ["zero", "all", "graded"]
    assert [n.label() for n in neutrices[:6]] == ["0", "R", "N(-3)", "N(-2)", "M0", "G0"]
    germs = [Germ.constant(0), one, w, 1 / w] + [random_germ(rng) for _ in range(8)]
    for n in neutrices:
        for m in neutrices:
            assert X.neutrix_add(n, m) == _per_kind_add(n, m)
            assert X.neutrix_mul(n, m) == _per_kind_mul(n, m)
        for a in germs:
            assert X.neutrix_scale(a, n) == _per_kind_scale(a, n)
            assert n.contains(a) == (a.is_zero() or n.kind == "all"
                                     or (n.kind == "graded" and valuation(a) <= n.grade))


# -- external numbers ------------------------------------------------------


def test_add_with_shared_monad():
    s = X.extnum_add(X.parse_ext("3 + M0"), X.parse_ext("4 + M0"))
    assert s == X.make(Germ.constant(7), X.M0)


def test_canonical_absorption():
    a = X.parse_ext("3 + 1/w + M0")
    assert a == X.make(Germ.constant(3), X.M0)
    same = X.extnum_add(a, X.parse_ext("M0"))
    assert same == a


def test_opposite_centers_cancel_to_galaxy():
    s = X.extnum_add(X.parse_ext("w + G0"), X.parse_ext("-w + M0"))
    assert s == X.make(Germ.constant(0), X.G0)
    # sampled Minkowski sums land in the galaxy and fill it
    rng = random.Random(45)
    for u in sample_neutrix_members(X.G0, rng, 10):
        for v in sample_neutrix_members(X.M0, rng, 5):
            assert s.contains((w + u) + (-w + v) - Fraction(0))
    assert s.contains(Germ.constant(17))  # limited values are realised


def test_mul_of_appreciable_centers():
    p = X.extnum_mul(X.parse_ext("3 + M0"), X.parse_ext("2 + M0"))
    assert p == X.make(Germ.constant(6), X.M0)
    rng = random.Random(46)
    for u in sample_neutrix_members(X.M0, rng, 10):
        for v in sample_neutrix_members(X.M0, rng, 5):
            prod = (Germ.constant(3) + u) * (Germ.constant(2) + v)
            assert p.contains(prod)


def test_mul_of_monads_drops_a_grade():
    p = X.extnum_mul(X.make(Germ.constant(0), X.M0), X.make(Germ.constant(0), X.M0))
    assert p == X.make(Germ.constant(0), X.Neutrix(-2))
    rng = random.Random(47)
    for u in sample_neutrix_members(X.M0, rng, 10):
        for v in sample_neutrix_members(X.M0, rng, 5):
            assert valuation(u * v) is None or valuation(u * v) <= -2


def test_one_with_zero_neutrix_is_identity():
    rng = random.Random(48)
    unit = X.make(one)
    for _ in range(30):
        g = random_germ(rng)
        x = X.make(g, X.Neutrix(rng.randint(-2, 1)))
        assert X.extnum_mul(unit, x) == x


def test_order_examples():
    assert X.extnum_order(X.parse_ext("3 + M0"), X.parse_ext("4 + M0")) == "less"
    assert X.extnum_order(X.parse_ext("3 + M0"), X.parse_ext("3 + G0")) == "overlapping"
    assert (
        X.extnum_order(X.parse_ext("1/w + N(-2)"), X.parse_ext("2/w + N(-2)")) == "less"
    )
    assert X.extnum_order(X.parse_ext("4 + M0"), X.parse_ext("3 + M0")) == "greater"


def _per_kind_order(x, y):
    """The order decided kind by kind, as a reference for extnum_order."""
    d = y.center - x.center
    if d.is_zero():
        return "overlapping"
    if x.neutrix.kind == "all" or y.neutrix.kind == "all":
        return "overlapping"
    v = valuation(d)
    for n in (x.neutrix, y.neutrix):
        if n.kind == "graded" and v <= n.grade:
            return "overlapping"
    return "less" if compare(d, Germ.constant(0)) > 0 else "greater"


def test_order_agrees_with_the_per_kind_definition():
    rng = random.Random(51)
    neutrices = [X.ZERO_N, X.ALL_N] + [X.Neutrix(g) for g in range(-3, 3)]
    centres = [Germ.constant(0), one, w, 1 / w] + [random_germ(rng) for _ in range(8)]
    points = [X.make(c, n) for c in centres for n in neutrices]
    seen = set()
    for x in points:
        for y in points:
            expected = _per_kind_order(x, y)
            assert X.extnum_order(x, y) == expected
            seen.add(expected)
    assert seen == {"less", "greater", "overlapping"}


def test_order_separation_is_genuine():
    rng = random.Random(49)
    x, y = X.parse_ext("1/w + N(-2)"), X.parse_ext("2/w + N(-2)")
    for u in sample_neutrix_members(x.neutrix, rng, 10):
        for v in sample_neutrix_members(y.neutrix, rng, 5):
            assert compare(x.center + u, y.center + v) < 0


def test_canonicalization_idempotent():
    rng = random.Random(50)
    for _ in range(60):
        x = X.make(random_germ(rng, max_deg=3), X.Neutrix(rng.randint(-3, 2)))
        assert X.make(x.center, x.neutrix) == x


def test_add_mul_commutative_associative_sample():
    rng = random.Random(51)
    for _ in range(40):
        xs = [
            X.make(random_germ(rng), X.Neutrix(rng.randint(-2, 1)))
            for _ in range(3)
        ]
        a, b, c = xs
        assert X.extnum_add(a, b) == X.extnum_add(b, a)
        assert X.extnum_mul(a, b) == X.extnum_mul(b, a)
        assert X.extnum_add(X.extnum_add(a, b), c) == X.extnum_add(a, X.extnum_add(b, c))
        assert X.extnum_mul(X.extnum_mul(a, b), c) == X.extnum_mul(a, X.extnum_mul(b, c))


def test_absorption_law():
    rng = random.Random(52)
    for _ in range(40):
        x = X.make(random_germ(rng), X.Neutrix(rng.randint(-2, 1)))
        assert X.extnum_add(x, X.make(Germ.constant(0), x.neutrix)) == x


def test_all_neutrix_has_zero_center():
    x = X.make(w + 3, X.ALL_N)
    assert x.center.is_zero()


def test_parse_rejects_neutrix_division():
    with pytest.raises(ValueError):
        X.parse_ext("1/(1 + M0)")


@pytest.mark.parametrize("text", ["shadow(M0)", "shadow(w + M0)", "2*shadow(1 + G0)"])
def test_parse_rejects_shadow_of_an_external_number(text):
    with pytest.raises(ValueError, match="^shadow takes a germ, not an external number$"):
        X.parse_ext(text)
