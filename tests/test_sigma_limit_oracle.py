"""Property tests of ``sigma_limit``: monotone schemas against a
Fraction-only oracle, schemas whose ends turn late against a scan of
their values, and self-similar families against their members.

Each drawn piece has endpoints z + c/(k + s) that move monotonically
towards limits a and b inside (0,1): outwards in an increasing schema,
inwards in a decreasing one, so every drawn schema is monotone in its
mode.  The measure of a finite union of intervals is continuous in the
endpoints, so the limit of the member measures is the Lebesgue measure
of the union of the limit intervals [a, b], which the oracle computes
with Fractions alone.  Pieces may overlap, touch or vanish in the limit.
The decided mode must accept every such schema, and its members well
past the depth must pass the sampled mode check.

A piece end z + h*(k - c)^2/((k - c)^2 + b), with a turning point c
past start, moves one way before c and the other way after it, however
far past the depth c lies; the schema must be refused, naming the first
piece, end and k at which the values move against the mode.

A self-similar family's certificate is built from its first two members
only; wherever it is issued, the members up to the depth must pass the
mode check and have the certified measures.
"""

from fractions import Fraction
from itertools import accumulate

import pytest
from helpers import check_mode
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import measure as M
from hyperq.errors import ModeViolationError
from hyperq.germ import Germ, parse_germ_in_k

DEPTH = 6


def union_length(spans):
    """Total length of a union of closed intervals [a, b] with a <= b."""
    total, cursor = Fraction(0), None
    for lo, hi in sorted(spans):
        if cursor is None or lo > cursor:
            total, cursor = total + hi - lo, hi
        elif hi > cursor:
            total, cursor = total + hi - cursor, hi
    return total


@st.composite
def endpoint(draw, start, from_above):
    """Text and limit of an endpoint that tends to z from above,
    z + c/(k + s), or from below, z - c/(k + s), with c >= 0 small
    enough that it stays inside (0,1) for k >= start."""
    z = Fraction(draw(st.integers(1, 23)), 24)
    s = draw(st.integers(1, 4))
    room = (1 - z if from_above else z) * (start + s)
    c = room * Fraction(draw(st.integers(0, 3)), 4)
    sign = "+" if from_above else "-"
    return f"{z} {sign} ({c})/(k + {s})", z


@st.composite
def schemas(draw):
    mode = draw(st.sampled_from(["increasing", "decreasing"]))
    start = draw(st.integers(1, 3))
    grows = mode == "increasing"
    pieces, limits = [], []
    for _ in range(draw(st.integers(1, 3))):
        lo_text, a = draw(endpoint(start, grows))  # a growing piece's lower end falls
        hi_text, b = draw(endpoint(start, not grows))
        lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
        pieces.append(M.Piece(parse_germ_in_k(lo_text), parse_germ_in_k(hi_text),
                              lo_closed, hi_closed))
        if a <= b:
            limits.append((a, b))
    return M.SigmaFamily(mode, schema=tuple(pieces), start=start), union_length(limits)


@settings(max_examples=60, deadline=None)
@given(schemas())
def test_monotone_schema_limit_is_the_measure_of_the_limit_intervals(case):
    family, expected = case
    cert = M.sigma_limit(family, DEPTH)
    assert cert.limit == expected
    assert cert.materialized_to == family.start + DEPTH
    assert [k for k, _ in cert.values] == list(range(family.start, family.start + DEPTH + 1))
    check_mode(family, [family.at(k) for k in range(family.start, family.start + 61)],
               family.start)


@st.composite
def late_turns(draw):
    """A monotone schema from ``schemas`` with one end of one piece
    replaced by an end that turns at c, start < c <= 40, staying between
    z and z + h inside (0,1)."""
    family, _ = draw(schemas())
    z = Fraction(draw(st.integers(2, 22)), 24)
    h = Fraction(draw(st.integers(-1, 1).filter(bool)), 24)
    c = draw(st.integers(family.start + 1, 40))
    b = draw(st.integers(1, 100))
    turn = parse_germ_in_k(f"{z} + ({h})*(k - {c})^2/((k - {c})^2 + {b})")
    i = draw(st.integers(0, len(family.schema) - 1))
    p = family.schema[i]
    p = M.Piece(turn, p.hi, p.lo_closed, p.hi_closed) if draw(st.booleans()) else \
        M.Piece(p.lo, turn, p.lo_closed, p.hi_closed)
    return M.SigmaFamily(family.mode, family.schema[:i] + (p,) + family.schema[i + 1:],
                         start=family.start)


def first_wrong_step(family, last):
    """(piece number, end, k) of the first step up to k = last, in piece
    order and lower end first, that moves an end against the mode, by
    evaluating the ends."""
    grows = 1 if family.mode == "increasing" else -1
    for n, p in enumerate(family.schema, 1):
        for end, g, sign in (("lower", p.lo, -grows), ("upper", p.hi, grows)):
            for k in range(family.start, last):
                if sign * (g.evaluate(k + 1) - g.evaluate(k)) < 0:
                    return n, end, k
    return None


@settings(max_examples=40, deadline=None)
@given(late_turns())
def test_a_late_turn_is_refused_at_its_first_k(family):
    n, end, k = first_wrong_step(family, 42)
    moves = "rises" if (end == "lower") == (family.mode == "increasing") else "falls"
    message = f"^{family.mode} mode not proved: the {end} end of piece {n} {moves} at k={k}$"
    with pytest.raises(ModeViolationError, match=message):
        M.sigma_limit(family, DEPTH)


# -- self-similar families -------------------------------------------------

# Members of five maps hold up to 5^k pieces before they merge.
SELF_SIMILAR_DEPTH = 4


@st.composite
def self_similar(draw):
    """A family of affine maps whose images of [0,1] are grid intervals
    that meet in at most a point, some of them reversed: apart, or
    tiling [0,1] so that the measure ratio is 1.  The base is [0,1] or
    one or two grid intervals, and the declared mode is any of three."""
    grid = [Fraction(i, 12) for i in range(13)]
    cuts = sorted(draw(st.lists(st.sampled_from(grid), min_size=2, max_size=4, unique=True)))
    if draw(st.booleans()):
        cuts = sorted({0, 1, *cuts})
        images = zip(cuts, cuts[1:])
    else:
        images = zip(cuts[::2], cuts[1::2])
    maps = tuple((q - p, p) if draw(st.booleans()) else (p - q, q) for p, q in images)
    base = [M.Piece(Germ.constant(0), Germ.constant(1))]
    ends = st.lists(st.sampled_from(grid), min_size=2, max_size=2, unique=True)
    if draw(st.booleans()):
        base = []
        for _ in range(draw(st.integers(1, 2))):
            lo, hi = sorted(draw(ends))
            base.append(M.Piece(Germ.constant(lo), Germ.constant(hi), draw(st.booleans()),
                                draw(st.booleans())))
    mode = draw(st.sampled_from(["increasing", "decreasing", "disjoint"]))
    return M.SigmaFamily(mode, tuple(base), maps, start=draw(st.integers(0, 2)))


@settings(max_examples=80, deadline=None)
@given(self_similar())
def test_self_similar_certificate_holds_on_the_members(family):
    members = [family.at(k) for k in range(family.start, family.start + SELF_SIMILAR_DEPTH + 1)]
    try:
        cert = M.sigma_limit(family, SELF_SIMILAR_DEPTH)
    except ModeViolationError:
        if family.mode != "disjoint":  # a monotone mode is refused only when it fails
            with pytest.raises(ModeViolationError):
                check_mode(family, members[:2], family.start)
        return
    check_mode(family, members, family.start)
    measures = [M.loeb_measure(x) for x in members]
    expected = list(accumulate(measures)) if family.mode == "disjoint" else measures
    assert [v for _, v in cert.values] == expected
    assert cert.materialized_to == family.start + 1
