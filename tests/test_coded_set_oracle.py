"""Property tests of coded sets against an independent evaluator.

Random set expressions over ``limited``, ``inf``, ``std``, ``monad(c)``,
singletons and germ intervals are parsed into coded sets.  The oracle
below evaluates the expression tree itself at a germ, with nothing but
``compare``, ``is_limited``, ``is_infinitesimal`` and ``is_constant``.

Every endpoint and centre is drawn from a small pool of anchors.  Between
two neighbouring cuts of such a set there is always one of the probes
built from the anchors: each anchor, its neighbours at distance 1/w^3
and 1, and the midpoints of neighbouring anchors, each also shifted by
1/w^3.  So two sets agree on the probes exactly when they are equal, and
the exact decisions ``is_empty``, ``subset`` and ``equivalent`` are
checked in both directions, not only against a sample.
"""

from fractions import Fraction
from functools import cache, cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import standard_catalog
from hyperq import coding as C
from hyperq import exprlang as E
from hyperq import germ as G
from hyperq.germ import OMEGA, Germ

w = OMEGA
TINY = 1 / w ** 3
STANDARD = [Fraction(q) for q in (-1, Fraction(-1, 2), 0, Fraction(1, 3), Fraction(1, 2), 1, 2)]
ANCHORS = [Germ.constant(q) + e / w ** j for q in STANDARD for e in (-1, 0, 1) for j in (1, 2)]
ANCHORS = sorted(set(ANCHORS + [w, -w, w + 1, w * w]), key=cmp_to_key(G.compare))


def _probes():
    out = []
    for a in ANCHORS:
        out += [a, a - TINY, a + TINY, a - 1, a + 1, a - 1 + TINY, a + 1 - TINY]
    for a, b in zip(ANCHORS, ANCHORS[1:]):
        mid = (a + b) / 2
        out += [mid, mid + TINY]
    out += [-(w ** 3), w ** 3]
    return list(dict.fromkeys(out))


PROBES = _probes()


# -- the independent evaluator ----------------------------------------------

germ = cache(E.to_germ)  # endpoint trees are hashable


def holds(node, g: Germ) -> bool:
    if isinstance(node, E.PredAtom):
        return {"limited": G.is_limited, "inf": G.is_infinitesimal,
                "std": Germ.is_constant}[node.name](g)
    if isinstance(node, E.MonadOf):
        return G.is_infinitesimal(g - germ(node.center))
    if isinstance(node, E.Singleton):
        return G.compare(g, germ(node.value)) == 0
    if isinstance(node, E.Interval):
        lo, hi = G.compare(g, germ(node.lo)), G.compare(g, germ(node.hi))
        return (lo > 0 or lo == 0 and node.lo_closed) and (hi < 0 or hi == 0 and node.hi_closed)
    if isinstance(node, E.NotP):
        return not holds(node.child, g)
    if isinstance(node, E.AndP):
        return holds(node.left, g) and holds(node.right, g)
    if isinstance(node, E.OrP):
        return holds(node.left, g) or holds(node.right, g)
    raise TypeError(node)


def members(node):
    return tuple(holds(node, g) for g in PROBES)


# -- random expressions -------------------------------------------------------

anchors = st.sampled_from(ANCHORS)


@st.composite
def leaves(draw):
    kind = draw(st.sampled_from(["limited", "inf", "std", "monad", "single", "interval", "interval"]))
    if kind in ("limited", "inf", "std"):
        return E.PredAtom(kind)
    if kind == "monad":
        return E.MonadOf(E.germ_to_ast(draw(anchors)))
    if kind == "single":
        return E.Singleton(E.germ_to_ast(draw(anchors)))
    lo, hi = sorted((draw(anchors), draw(anchors)), key=cmp_to_key(G.compare))
    return E.Interval(E.germ_to_ast(lo), E.germ_to_ast(hi), draw(st.booleans()), draw(st.booleans()))


trees = st.recursive(
    leaves(),
    lambda sub: st.one_of(
        st.builds(E.NotP, sub), st.builds(E.AndP, sub, sub), st.builds(E.OrP, sub, sub)
    ),
    max_leaves=6,
)


def coded(node):
    return C.parse_predicate(E.format(node))


@settings(max_examples=100, deadline=None)
@given(trees)
def test_membership_matches_the_evaluator(node):
    s = coded(node)
    for g in PROBES + list(standard_catalog()):
        assert C.membership(s, g) == holds(node, g), (E.format(node), str(g))


@settings(max_examples=100, deadline=None)
@given(trees, trees)
def test_decisions_agree_with_the_probes(a, b):
    ma, mb = members(a), members(b)
    sa, sb = coded(a), coded(b)
    assert C.is_empty(sa) == (not any(ma))
    assert C.subset(sa, sb) == all(y for x, y in zip(ma, mb) if x)
    assert C.equivalent(sa, sb) == (ma == mb)


def xor(a, b):
    return E.OrP(E.AndP(a, E.NotP(b)), E.AndP(b, E.NotP(a)))


@settings(max_examples=100, deadline=None)
@given(trees, st.sampled_from(STANDARD), st.sampled_from([-TINY, TINY]))
def test_changes_no_member_sees_are_equivalent(node, q, step):
    """Toggling a standard point among the non-standard members, or a
    standard-free interval among the standard ones, keeps the set."""
    std, c = E.PredAtom("std"), Germ.constant(q)
    point = E.Singleton(E.germ_to_ast(c))
    lo, hi = sorted((c, c + step), key=cmp_to_key(G.compare))
    gap = E.Interval(E.germ_to_ast(lo), E.germ_to_ast(hi), False, False)
    for other in (E.OrP(E.AndP(std, node), E.AndP(E.NotP(std), xor(node, point))),
                  E.OrP(E.AndP(E.NotP(std), node), E.AndP(std, xor(node, gap)))):
        assert C.equivalent(coded(node), coded(other)), E.format(other)


@settings(max_examples=100, deadline=None)
@given(trees, trees, trees)
def test_boolean_laws_hold_exactly(a, b, c):
    x, y, z = (coded(n).predicate for n in (a, b, c))

    def same(p, q):
        return C.equivalent(C.CodedSet(p), C.CodedSet(q))

    assert same(C.PNot(C.POr(x, y)), C.PAnd(C.PNot(x), C.PNot(y)))
    assert same(C.PNot(C.PAnd(x, y)), C.POr(C.PNot(x), C.PNot(y)))
    assert same(C.PAnd(x, C.POr(y, z)), C.POr(C.PAnd(x, y), C.PAnd(x, z)))
    assert same(C.POr(x, C.PAnd(y, z)), C.PAnd(C.POr(x, y), C.POr(x, z)))
    assert same(C.PNot(C.PNot(x)), x)
    assert same(C.POr(x, C.PAnd(x, y)), x)
    assert same(C.PAnd(x, C.POr(x, y)), x)


@settings(max_examples=150, deadline=None)
@given(trees)
def test_print_then_parse_is_the_identity(node):
    s = coded(node)
    assert C.parse_predicate(str(s)).predicate == s.predicate
    reduced = C.normal_form(s)
    assert C.normal_form(C.parse_predicate(str(reduced))) == reduced


# -- pinned cases: wrong answers of the catalog sample, and std near 1/3 -------


@pytest.mark.parametrize("text, empty", [
    ("(1/3 + 1/w^3, 1/3 + 2/w^3)", False),
    ("std & (1/3 - 1/w, 1/3 + 1/w)", False),
    ("std & (1/3, 1/3 + 1/w)", True),
])
def test_pinned_emptiness(text, empty):
    assert C.is_empty(C.parse_predicate(text)) == empty


@pytest.mark.parametrize("left, right", [
    ("monad(5)", "{5}"),
    ("limited", "[-1000000,1000000]"),
])
def test_pinned_inequivalence(left, right):
    assert not C.equivalent(C.parse_predicate(left), C.parse_predicate(right))


def test_pinned_subset():
    assert not C.subset(C.parse_predicate("inf"), C.parse_predicate("inf & ~(0, 1/w^3)"))


def test_the_only_standard_infinitesimal_is_zero():
    meet = C.parse_predicate("std & inf")
    assert C.equivalent(meet, C.parse_predicate("{0}"))
    assert str(C.normal_form(meet)) == "std & {0}"
