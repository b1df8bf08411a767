import random
import time
from fractions import Fraction

import pytest

from helpers import random_germ
from hyperq import coding as C
from hyperq.errors import EngineError, NonMonotoneGeneratorError, UniverseMismatchError
from hyperq.germ import OMEGA, Germ, GermClass, classify, parse_germ_in_k

w = OMEGA
one = Germ.constant(1)


def coded(text, universe="V"):
    return C.parse_predicate(text, universe)


def test_membership_limited():
    assert C.membership(coded("limited"), Germ.constant(3) + one / w)


def test_membership_infinitesimal_rejects_unlimited():
    assert not C.membership(coded("inf"), w)


def test_membership_interval_with_germ_endpoints():
    s = C.CodedSet(C.InInterval(one / w, Germ.constant(Fraction(1, 2)), True, True))
    assert C.membership(s, Germ.constant(Fraction(1, 4)) + one / w ** 2)
    assert not C.membership(s, one / w ** 2)  # below 1/w


def test_infinitesimal_includes_zero():
    assert C.membership(coded("inf"), Germ.constant(0))


def test_setops_difference_appreciable():
    # limited minus infinitesimal: appreciable or standard-nonzero
    diff = C.setops(coded("limited"), coded("inf"), "difference")
    for g in C.standard_catalog():
        expected = classify(g) in (
            GermClass.STANDARD_NONZERO,
            GermClass.APPRECIABLE_NONSTANDARD,
        )
        assert C.membership(diff, g) == expected


def test_setops_union_with_empty_is_identity():
    s = coded("limited")
    u = C.setops(s, C.empty_set(), "union")
    assert C.equivalent(s, u)


def test_standard_and_infinitesimal_is_zero_only():
    meet = C.setops(coded("std"), coded("inf"), "intersection")
    for g in C.standard_catalog():
        assert C.membership(meet, g) == g.is_zero()


@pytest.mark.parametrize("left, right", [
    ("std & inf", "{0}"),
    ("limited | inf", "limited"),
    ("~~monad(1/2)", "monad(1/2)"),
    ("[0, 1] & std", "std & (-1/w, 1 + 1/w)"),
])
def test_equality_and_hash_agree_with_set_equality(left, right):
    a, b = coded(left), coded(right)
    assert C.equivalent(a, b)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert coded(left, "A") != coded(right, "B")
    assert a != coded("inf")


def test_setops_universe_mismatch():
    with pytest.raises(UniverseMismatchError):
        C.setops(coded("limited", "A"), coded("limited", "B"), "union")


def test_subset_iff_difference_empty():
    catalog = C.standard_catalog()
    s1, s2 = coded("inf"), coded("limited")
    assert C.subset(s1, s2)
    assert not C.subset(s2, s1)


def test_de_morgan_on_catalog():
    rng = random.Random(23)
    catalog = C.standard_catalog()
    atoms = [coded("limited"), coded("inf"), coded("std"),
             C.CodedSet(C.InInterval(Germ.constant(0), one, True, False))]
    for _ in range(30):
        s1, s2 = rng.choice(atoms), rng.choice(atoms)
        lhs = C.CodedSet(C.PNot(C.POr(s1.predicate, s2.predicate)))
        rhs = C.CodedSet(C.PAnd(C.PNot(s1.predicate), C.PNot(s2.predicate)))
        assert C.equivalent(lhs, rhs)
        lhs2 = C.CodedSet(C.PNot(C.PAnd(s1.predicate, s2.predicate)))
        rhs2 = C.CodedSet(C.POr(C.PNot(s1.predicate), C.PNot(s2.predicate)))
        assert C.equivalent(lhs2, rhs2)


# -- countable operations ---------------------------------------------------


def family(lo, hi, **kw):
    return C.CodedFamily(parse_germ_in_k(lo), parse_germ_in_k(hi), **kw)


def test_union_of_growing_intervals():
    r = C.countable_ops(family("1/k", "1"), "union")
    assert C.membership(r.set, Germ.constant(Fraction(1, 2)))
    assert C.membership(r.set, one)
    assert not C.membership(r.set, Germ.constant(0))
    assert not C.membership(r.set, one / w)  # infinitesimals stay outside
    assert not C.membership(r.set, Germ.constant(2))


def test_union_members_agree_with_exists_semantics():
    r = C.countable_ops(family("1/k", "1"), "union")
    for g in C.standard_catalog():
        claimed = C.membership(r.set, g)
        found = any(C.membership(r.family.at(k), g) for k in range(1, 60))
        assert claimed == found


def test_union_witness_bound_is_checked():
    r = C.countable_ops(family("1/k", "1"), "union")
    for g in C.standard_catalog():
        if not C.membership(r.set, g):
            continue
        bound = C.union_witness_bound(r, g)
        k = C.union_witness(r, g)
        assert k is not None and k <= bound
        assert C.membership(r.family.at(k), g)
        assert C.membership(r.family.at(bound), g)


def test_constant_family_intersection():
    r = C.countable_ops(family("0", "1"), "intersection")
    assert C.membership(r.set, Germ.constant(Fraction(1, 3)))
    assert C.membership(r.set, Germ.constant(0))
    assert C.membership(r.set, one)
    assert not C.membership(r.set, Germ.constant(2))


def test_intersection_keeps_monad():
    r = C.countable_ops(family("0", "1/k"), "intersection")
    assert C.membership(r.set, one / w ** 2)
    assert C.membership(r.set, Germ.constant(0))
    assert not C.membership(r.set, Germ.constant(Fraction(1, 100)))
    assert not C.membership(r.set, -one / w)


def test_intersection_members_agree_with_forall_semantics():
    r = C.countable_ops(family("0", "1/k"), "intersection")
    for g in C.standard_catalog():
        claimed = C.membership(r.set, g)
        holds = all(C.membership(r.family.at(k), g) for k in range(1, 60))
        assert claimed == holds


def test_non_monotone_generator_rejected():
    bad = family("(k-3)^2", "100")  # dips then rises
    with pytest.raises(NonMonotoneGeneratorError):
        C.countable_ops(bad, "union")


def test_union_of_shrinking_family_rejected():
    with pytest.raises(NonMonotoneGeneratorError):
        C.countable_ops(family("0", "1/k"), "union")


def test_monotonicity_of_coding():
    catalog = C.standard_catalog()
    rng = random.Random(31)
    base = [coded("limited"), coded("inf"), coded("std")]
    for _ in range(20):
        s1, s2 = rng.choice(base), rng.choice(base)
        union = C.setops(s1, s2, "union")
        assert C.subset(s1, union)
        inter = C.setops(s1, s2, "intersection")
        assert C.subset(inter, s1)


def test_predicate_roundtrip_print_parse():
    from hyperq import exprlang as E

    s = coded("(limited & ~inf) | [0,1/2)")
    text = E.format(C.predicate_to_ast(s.predicate))
    again = C.parse_predicate(text)
    assert C.equivalent(s, again)


# -- exact monotonicity and least witnesses --------------------------------


@pytest.mark.parametrize("lo, turn", [
    ("(k-12)^2/(k^3+1000)", 12),  # 0 is in family.at(12), but lo rises after it
    ("(k-1000)^2/(k^3+1)", 1000),
    ("(k^2-2000000*k+1000000000001)/k^3", 1000000),
    ("1/(k-5)", 5),  # a pole inside the index range
])
def test_late_turning_and_pole_endpoints_refused(lo, turn):
    began = time.perf_counter()
    with pytest.raises(NonMonotoneGeneratorError, match=f"k={turn}$"):
        C.countable_ops(family(lo, "1", start=1), "union")
    assert time.perf_counter() - began < 1.0


def _brute_least_witness(lo, hi, lo_closed, hi_closed, start, c, e):
    """Least k with c + e/w in the interval at k (e in {-1, 0, 1}), by
    scanning; a germ c + e/w sorts like the pair (c, e) against (q, 0)."""
    a = (c, e)
    k = start
    while True:
        lo_k, hi_k = (lo(k), 0), (hi(k), 0)
        if (lo_k < a or lo_closed and lo_k == a) and (a < hi_k or hi_closed and a == hi_k):
            return k
        k += 1


WITNESS_FAMILY = ("1/(k+1)", lambda k: Fraction(1, k + 1),
                  "1 - 1/(k+2)", lambda k: 1 - Fraction(1, k + 2))


@pytest.mark.parametrize("start", [0, 1, 3])
@pytest.mark.parametrize("lo_closed, hi_closed", [(True, True), (False, True), (True, False), (False, False)])
@pytest.mark.parametrize("c, e", [
    (Fraction(1, 2), 0), (Fraction(1, 2), 1), (Fraction(1, 2), -1),
    (Fraction(3, 4), 0), (Fraction(1, 201), 0), (Fraction(1, 201), -1),
])
def test_union_witness_is_least(start, lo_closed, hi_closed, c, e):
    lo_text, lo, hi_text, hi = WITNESS_FAMILY
    r = C.countable_ops(family(lo_text, hi_text, lo_closed=lo_closed,
                               hi_closed=hi_closed, start=start), "union")
    a = Germ.constant(c) + Germ.constant(e) / w
    k = C.union_witness(r, a)
    assert k == _brute_least_witness(lo, hi, lo_closed, hi_closed, start, c, e)
    assert C.union_witness_bound(r, a) == k


@pytest.mark.parametrize("lo_closed", [True, False])
def test_union_witness_20000(lo_closed):
    lo_text, lo, hi_text, hi = WITNESS_FAMILY
    r = C.countable_ops(family(lo_text, hi_text, lo_closed=lo_closed), "union")
    c = Fraction(1, 20001)
    k = C.union_witness(r, Germ.constant(c))
    assert k == _brute_least_witness(lo, hi, lo_closed, True, 1, c, 0)
    assert k == (20000 if lo_closed else 20001)
    assert C.union_witness_bound(r, Germ.constant(c)) == k


def test_union_witness_errors_for_non_members_and_intersections():
    lo_text, _, hi_text, _ = WITNESS_FAMILY
    r = C.countable_ops(family(lo_text, hi_text), "union")
    for outside in (Germ.constant(0), one / w, one - one / w, one, Germ.constant(2)):
        assert C.union_witness(r, outside) is None
        with pytest.raises(EngineError):
            C.union_witness_bound(r, outside)
    meet = C.countable_ops(family("0", "1/k"), "intersection")
    with pytest.raises(ValueError):
        C.union_witness_bound(meet, Germ.constant(0))
