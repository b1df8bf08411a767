"""Differential test of counting_measure against the plain width sum.

The reference below sums the width the direct way, one germ ``hi - lo``
per piece, and builds the bounds from it as counting_measure does.
counting_measure sums numerators per denominator instead, so the two
must give the same germs, and the same Loeb value as loeb_measure.

Endpoints mix constants on shared and on distinct denominators with
the infinitesimally shifted kinds c + e/w, c + e/(w+1) and c + e/w^2,
so that one set's cuts fall into constant and non-constant denominator
groups at once.  Sets with thousands of distinct denominators check
that the per-denominator germs are added without a quadratic cost.
"""

import random
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import measure as M
from hyperq.germ import OMEGA, Germ, shadow

w = OMEGA
SHIFTS = (None, 1 / w, 1 / (w + 1), 1 / w ** 2)  # None: a bare constant


def reference(x: M.InternalSet) -> M.MeasureValue:
    """counting_measure with the width summed as one germ per piece."""
    width = sum((hi[0] - lo[0] for lo, hi in M._spans(x.cuts)), Germ.constant(0))
    slack = Germ.constant(len(x.cuts) // 2)
    lower = (width * w - slack) / (w + 1)
    upper = (width * w + slack) / (w + 1)
    return M.MeasureValue(M._clamp(shadow(width)), lower, upper)


@st.composite
def endpoints(draw):
    # denominators 12, 6 and 4 share factors; 7, 11 and 13 share none
    den = draw(st.sampled_from([12, 6, 4, 7, 11, 13]))
    c = Fraction(draw(st.integers(0, den)), den)
    shift = draw(st.sampled_from(SHIFTS))
    if shift is None:
        return Germ.constant(c)
    e = draw(st.integers(-2, 2))
    if (c == 0 and e < 0) or (c == 1 and e > 0):
        e = -e  # keep the endpoint inside [0,1]
    return Germ.constant(c) + e * shift


@st.composite
def pieces(draw):
    a, b = sorted((draw(endpoints()), draw(endpoints())))
    return M.Piece(a, b, draw(st.booleans()), draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(st.lists(pieces(), max_size=40))
def test_counting_measure_matches_the_per_piece_width(raw):
    x = M.InternalSet(raw)
    got, want = M.counting_measure(x), reference(x)
    assert got.lower == want.lower
    assert got.upper == want.upper
    assert got.loeb == want.loeb == M.loeb_measure(x)


def many_denominators(n, seed):
    """n disjoint pieces whose 2n endpoints have random denominators in
    10^5 to 10^6."""
    rng = random.Random(seed)
    ends = set()
    while len(ends) < 2 * n:
        q = rng.randrange(10 ** 5, 10 ** 6)
        ends.add(Fraction(rng.randrange(1, q), q))
    ends = sorted(ends)
    return M.InternalSet([M.Piece(Germ.constant(a), Germ.constant(b))
                          for a, b in zip(ends[::2], ends[1::2])])


def test_many_denominators_match_the_left_to_right_sum():
    x = many_denominators(60, 1)
    got, want = M.counting_measure(x), reference(x)
    assert (got.lower, got.upper, got.loeb) == (want.lower, want.upper, want.loeb)


def test_many_denominators_are_summed_in_near_linear_time():
    # left to right, each add ran a gcd on a denominator growing towards
    # the lcm of all of them: about 4 s at this size
    x = many_denominators(4000, 2)
    start = time.process_time()
    M.counting_measure(x)
    assert time.process_time() - start < 1
