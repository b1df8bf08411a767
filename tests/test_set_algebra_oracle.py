"""Property test of InternalSet's set algebra against a Fraction-only oracle.

Endpoints are germs c + e/w with c on the 1/12 grid and e in {-1, 0, 1}.
The oracle writes such a point as the pair (c, e): eventual order on
these germs is the lexicographic order on the pairs, so membership is
decided with Fraction comparisons alone.  Membership is constant between
consecutive endpoints, so probing every endpoint and every midpoint
between neighbours decides equality of two sets.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import measure as M
from hyperq.germ import OMEGA, Germ

ZERO, ONE = (Fraction(0), 0), (Fraction(1), 0)


@st.composite
def points(draw):
    c = Fraction(draw(st.integers(0, 12)), 12)
    offset = draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    if (c == 0 and offset < 0) or (c == 1 and offset > 0):
        offset = 0
    return (c, offset)


@st.composite
def raw_pieces(draw):
    a, b = sorted((draw(points()), draw(points())))
    if draw(st.integers(0, 5)) == 0:
        return (a, a, True, True)  # singleton
    return (a, b, draw(st.booleans()), draw(st.booleans()))


piece_lists = st.lists(raw_pieces(), max_size=6)


def germ_of(point):
    c, e = point
    return Germ.constant(c) + Germ.constant(e) / OMEGA


def build(raw):
    return M.InternalSet(
        [M.Piece(germ_of(lo), germ_of(hi), lc, hc) for lo, hi, lc, hc in raw]
    )


def contains(raw, x):
    return any(
        (lo < x or (lo == x and lc)) and (x < hi or (x == hi and hc))
        for lo, hi, lc, hc in raw
    )


def probes(*raws):
    ends = sorted({ZERO, ONE} | {e for raw in raws for p in raw for e in p[:2]})
    mids = [
        ((p[0] + q[0]) / 2, Fraction(p[1] + q[1], 2)) for p, q in zip(ends, ends[1:])
    ]
    return ends + mids


def as_raw(x, *raws):
    """The pieces of an engine result as oracle pairs; every endpoint
    must be one of the inputs' endpoints or 0 or 1."""
    known = {germ_of(e): e for raw in raws for p in raw for e in p[:2]}
    known.update({germ_of(ZERO): ZERO, germ_of(ONE): ONE})
    return [(known[p.lo], known[p.hi], p.lo_closed, p.hi_closed) for p in x.pieces]


def assert_normal(raw):
    for lo, hi, lc, hc in raw:
        assert lo < hi or (lo == hi and lc and hc), "empty piece"
    for (_, hi, _, hc), (lo, _, lc, _) in zip(raw, raw[1:]):
        assert hi < lo or (hi == lo and not hc and not lc), "overlap or mergeable"


def check(result, keep, a, b):
    out = as_raw(result, a, b)
    assert_normal(out)
    for x in probes(a, b):
        assert contains(out, x) == keep(contains(a, x), contains(b, x)), x


@settings(max_examples=150, deadline=None)
@given(piece_lists, piece_lists)
def test_boolean_operations_agree_with_pointwise_membership(a, b):
    x, y = build(a), build(b)
    check(x, lambda p, q: p, a, b)
    check(x.union(y), lambda p, q: p or q, a, b)
    check(x.intersect(y), lambda p, q: p and q, a, b)
    check(x.difference(y), lambda p, q: p and not q, a, b)
    check(x.complement(), lambda p, q: not p, a, b)
    xs = probes(a, b)
    assert x.subset_of(y) == all(contains(b, p) for p in xs if contains(a, p))
    assert x.is_disjoint_from(y) == (
        not any(contains(a, p) and contains(b, p) for p in xs)
    )
