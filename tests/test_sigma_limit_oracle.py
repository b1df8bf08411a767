"""Property test of ``sigma_limit`` on monotone schemas against a
Fraction-only oracle.

Each drawn piece has endpoints z + c/(k + s) that move monotonically
towards limits a and b inside (0,1): outwards in an increasing schema,
inwards in a decreasing one, so every drawn schema is monotone in its
mode.  The measure of a finite union of intervals is continuous in the
endpoints, so the limit of the member measures is the Lebesgue measure
of the union of the limit intervals [a, b], which the oracle computes
with Fractions alone.  Pieces may overlap, touch or vanish in the limit.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import measure as M
from hyperq.germ import parse_germ_in_k

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
        pieces.append(M.PieceSchema(parse_germ_in_k(lo_text), parse_germ_in_k(hi_text),
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
