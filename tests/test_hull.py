import random
from fractions import Fraction

import pytest

from helpers import random_germ, random_limited_germ, random_natural_germ
from hyperq import hull as H
from hyperq.errors import (
    EngineError,
    ModulusViolationError,
    NotFinitePointError,
    StructureMismatchError,
)
from hyperq.germ import (
    OMEGA,
    BivariateGerm,
    Germ,
    diagonal,
    parse_family,
    parse_germ,
    shadow,
)

w = OMEGA
one = Germ.constant(1)


def test_point_in_rationals_canonicalizes_to_shadow():
    p = H.hull_point(H.RATIONALS, one - one / w)
    assert p.canonical == one


def test_unlimited_point_rejected():
    with pytest.raises(NotFinitePointError):
        H.hull_point(H.RATIONALS, w)


def test_discrete_naturals_keep_nonstandard_points():
    p = H.hull_point(H.NATURALS, w)
    assert p.canonical == w


def test_nonnatural_germ_rejected_in_discrete_structure():
    with pytest.raises(NotFinitePointError):
        H.hull_point(H.NATURALS, one / w)
    with pytest.raises(NotFinitePointError):
        H.hull_point(H.NATURALS, Germ.constant(Fraction(1, 2)))


def test_dist_infinitesimal_is_zero():
    p = H.hull_point(H.RATIONALS, one + one / w)
    q = H.hull_point(H.RATIONALS, one)
    assert H.hull_dist(p, q) == 0
    assert p == q


def test_dist_example():
    p = H.hull_point(H.RATIONALS, Germ.constant(2) - one / w)
    q = H.hull_point(H.RATIONALS, Germ.constant(Fraction(1, 2)))
    # oracle: shadow of |(2 - 1/w) - 1/2|
    assert shadow(abs((Germ.constant(2) - one / w) - Fraction(1, 2))) == Fraction(3, 2)
    assert H.hull_dist(p, q) == Fraction(3, 2)


def test_discrete_distance_between_distinct_points():
    p = H.hull_point(H.NATURALS, w)
    q = H.hull_point(H.NATURALS, w + 1)
    assert H.hull_dist(p, q) == 1


def test_structure_mismatch():
    with pytest.raises(StructureMismatchError):
        H.hull_dist(H.hull_point(H.RATIONALS, one), H.hull_point(H.NATURALS, one))


def test_approachable_examples():
    assert H.approachable(H.RATIONALS, Germ.constant(Fraction(1, 2)) + one / w)
    assert not H.approachable(H.NATURALS, w)
    assert H.approachable(H.NATURALS, Germ.constant(5))
    assert not H.approachable(H.RATIONALS, w)


# -- metric properties, randomized ------------------------------------------


def _points(structure, rng, count):
    pts = []
    while len(pts) < count:
        if structure.kind == "rationals":
            pts.append(H.hull_point(structure, random_limited_germ(rng)))
        elif structure.kind == "naturals":
            pts.append(H.hull_point(structure, random_natural_germ(rng)))
        else:
            vec = tuple(random_limited_germ(rng) for _ in range(structure.dim))
            pts.append(H.hull_point(structure, vec))
    return pts


@pytest.mark.parametrize("structure", [H.RATIONALS, H.NATURALS, H.vector(2)])
def test_metric_axioms(structure):
    rng = random.Random(61)
    for _ in range(60):
        p, q, r = _points(structure, rng, 3)
        assert H.hull_dist(p, q) == H.hull_dist(q, p)
        assert H.hull_dist(p, q) >= 0
        assert (H.hull_dist(p, q) == 0) == (p == q)
        assert H.hull_dist(p, r) <= H.hull_dist(p, q) + H.hull_dist(q, r)


def test_embedding_is_isometric_on_standard_rationals():
    rng = random.Random(62)
    for _ in range(50):
        x = Fraction(rng.randint(-99, 99), rng.randint(1, 20))
        y = Fraction(rng.randint(-99, 99), rng.randint(1, 20))
        d = H.hull_dist(
            H.hull_point(H.RATIONALS, Germ.constant(x)),
            H.hull_point(H.RATIONALS, Germ.constant(y)),
        )
        assert d == abs(x - y)


def test_equivalent_representatives_are_congruent():
    rng = random.Random(63)
    for _ in range(40):
        g = random_limited_germ(rng)
        close = g + one / (w ** 2 + 1)
        p, q = H.hull_point(H.RATIONALS, g), H.hull_point(H.RATIONALS, close)
        assert p == q
        third = H.hull_point(H.RATIONALS, random_limited_germ(rng))
        assert H.hull_dist(p, third) == H.hull_dist(q, third)


@pytest.mark.parametrize("structure", [H.RATIONALS, H.NATURALS, H.vector(3)], ids=["q", "n", "v:3"])
def test_dist_is_the_shadow_of_the_representatives_distance(structure):
    rng = random.Random(52)

    def rep():
        if structure.kind == "naturals":
            return random_natural_germ(rng)
        if structure.kind == "vector":
            return tuple(random_limited_germ(rng) for _ in range(structure.dim))
        return random_limited_germ(rng)

    for _ in range(40):
        p, q = H.hull_point(structure, rep()), H.hull_point(structure, rep())
        expected = shadow(H.distance(structure, p.representative, q.representative))
        assert H.hull_dist(p, q) == expected


# -- limits -------------------------------------------------------------------


def _first_violation(seq, check_depth=8):
    """The first message of the modulus check over all ordered sample
    pairs, with distances taken on representatives; None if it passes."""
    def dist(p, q):
        return shadow(H.distance(seq.structure, p.representative, q.representative))

    limit = H.hull_point(seq.structure, diagonal(seq.family))
    for j in range(check_depth + 1):
        k0 = max(seq.modulus(j), seq.start)
        tol = Fraction(1, j + 1)
        samples = [seq.member(k) for k in (k0, k0 + 1, k0 + 5)]
        for a in samples:
            for b in samples:
                if dist(a, b) >= tol:
                    return (f"members past modulus({j})={k0} are {dist(a, b)} apart, "
                            f"not within 1/{j + 1}")
        for a in samples:
            if dist(limit, a) > tol:
                return f"limit is {dist(limit, a)} from member at tolerance 1/{j + 1}"
    return None


@pytest.mark.parametrize("family, modulus, start", [
    ("1/(k+1)", (0, 0), 0),  # breaks the modulus among members
    ("k/(k+1)", (0, 0), 0),
    ("3/(k+1) + 1/w", (1, 0), 0),
    ("w/(w+k)", (1, 1), 0),  # members tend to 1, the diagonal is 1/2
    ("1/(k+1) + k/w", (1, 1), 0),  # members tend to 0, the diagonal is 1
    ("k/(k+1)", (1, 1), 0),  # passes
    ("1/k + w/(w+1)", (2, 3), 1),  # passes
])
def test_limit_reports_the_first_violation(family, modulus, start):
    seq = H.HullSequence(H.RATIONALS, parse_family(family), H.Modulus(*modulus), start)
    expected = _first_violation(seq)
    if expected is None:
        assert H.hull_limit(seq) == H.hull_point(H.RATIONALS, diagonal(seq.family))
    else:
        with pytest.raises(ModulusViolationError) as info:
            H.hull_limit(seq)
        assert str(info.value) == expected


def test_limit_computes_at_most_six_distances_per_tolerance(monkeypatch):
    calls = []
    dist = H.hull_dist
    monkeypatch.setattr(H, "hull_dist", lambda p, q: calls.append(1) or dist(p, q))
    seq = H.HullSequence(H.RATIONALS, parse_family("k/(k+1)"), H.Modulus(1, 1))
    H.hull_limit(seq, check_depth=8)
    assert len(calls) <= 6 * 9


def test_limit_builds_each_member_once(monkeypatch):
    calls = []
    at_k = BivariateGerm.at_k
    monkeypatch.setattr(BivariateGerm, "at_k", lambda f, k: calls.append(k) or at_k(f, k))
    seq = H.HullSequence(H.RATIONALS, parse_family("k/(k+1)"), H.Modulus(1, 1))
    H.hull_limit(seq, check_depth=8)
    assert len(calls) == len(set(calls)) == 14  # 27 calls when rebuilt per tolerance


def test_limit_builds_members_lazily():
    # the denominator vanishes at k=10, which only tolerance 5 would reach
    seq = H.HullSequence(H.RATIONALS, parse_family("k/(k-10)"), H.Modulus(1, 0))
    with pytest.raises(ModulusViolationError, match=r"modulus\(0\)=0 are 1 apart"):
        H.hull_limit(seq)


def test_negative_check_depth_is_refused():
    seq = H.HullSequence(H.RATIONALS, parse_family("k/(k+1)"), H.Modulus(1, 1))
    with pytest.raises(EngineError, match="-1"):
        H.hull_limit(seq, check_depth=-1)


def test_check_depth_above_the_limit_is_refused():
    seq = H.HullSequence(H.RATIONALS, parse_family("k/(k+1)"), H.Modulus(1, 1))
    with pytest.raises(EngineError, match=f"limit of {H.MAX_CHECK_DEPTH}$"):
        H.hull_limit(seq, check_depth=H.MAX_CHECK_DEPTH + 1)


def test_limit_of_ratio_family():
    seq = H.HullSequence(H.RATIONALS, parse_family("k/(k+1)"), H.Modulus(1, 1), start=0)
    lim = H.hull_limit(seq)
    assert lim.canonical == one
    for j in range(10):
        k = seq.modulus(j)
        assert H.hull_dist(lim, seq.member(k)) <= Fraction(1, j + 1)


def test_limit_of_constant_family():
    seq = H.HullSequence(
        H.RATIONALS, parse_family("1/3"), H.Modulus(1, 1), start=0
    )
    assert H.hull_limit(seq).canonical == Germ.constant(Fraction(1, 3))


def test_limit_of_reciprocal_family():
    seq = H.HullSequence(H.RATIONALS, parse_family("1/k"), H.Modulus(1, 1), start=1)
    assert H.hull_limit(seq).canonical == Germ.constant(0)


def test_modulus_violation_detected():
    # members k are not Cauchy at all
    seq = H.HullSequence(H.RATIONALS, parse_family("k/(k+1)"), H.Modulus(0, 0), start=0)
    # modulus(j) = 0 claims all members within 1/(j+1) from the start; false for j >= 2
    with pytest.raises(ModulusViolationError):
        H.hull_limit(seq, check_depth=8)


def test_divergent_family_rejected():
    seq = H.HullSequence(H.RATIONALS, parse_family("k"), H.Modulus(1, 1), start=0)
    with pytest.raises((ModulusViolationError, NotFinitePointError)):
        H.hull_limit(seq)


# -- normed hulls ---------------------------------------------------------------


def test_normed_hull_componentwise_shadow():
    p = H.normed_hull(2, (one + one / w, one / w))
    assert p.canonical == (one, Germ.constant(0))


def test_normed_hull_rejects_unlimited_component():
    with pytest.raises(NotFinitePointError):
        H.normed_hull(2, (w, Germ.constant(0)))


def test_normed_hull_three_components():
    p = H.normed_hull(3, (parse_germ("(2*w+1)/w"), Germ.constant(Fraction(1, 2)), 3 / w ** 2))
    assert p.canonical == (Germ.constant(2), Germ.constant(Fraction(1, 2)), Germ.constant(0))


def test_normed_hull_linearity():
    rng = random.Random(64)
    for _ in range(40):
        u = tuple(random_limited_germ(rng) for _ in range(3))
        v = tuple(random_limited_germ(rng) for _ in range(3))
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        lhs = H.normed_hull(3, H.vec_add(u, v)).canonical
        rhs = H.vec_add(H.normed_hull(3, u).canonical, H.normed_hull(3, v).canonical)
        assert lhs == rhs
        lhs2 = H.normed_hull(3, H.vec_scale(q, u)).canonical
        rhs2 = H.vec_scale(q, H.normed_hull(3, u).canonical)
        assert lhs2 == rhs2


def test_vector_max_metric():
    p = H.hull_point(H.vector(2), (one, one / w))
    q = H.hull_point(H.vector(2), (Germ.constant(0), Germ.constant(0)))
    assert H.hull_dist(p, q) == 1
