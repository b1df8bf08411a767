"""Shared random generators for the test suite (deterministic seeds),
a sampled oracle for sigma-family modes, and planted faults for the
finite-model oracle."""

import dataclasses
from fractions import Fraction

from hyperq import finmodel
from hyperq.errors import ModeViolationError
from hyperq.germ import OMEGA, ONE, Germ
from hyperq.measure import _SPAN_KEY, _order, _spans


def random_fraction(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_poly(rng, max_deg=2, span=9):
    deg = rng.randint(0, max_deg)
    coeffs = [random_fraction(rng, span) for _ in range(deg + 1)]
    return tuple(coeffs)


def random_germ(rng, max_deg=2, nonzero=False, span=9):
    while True:
        num = random_poly(rng, max_deg, span)
        den = random_poly(rng, max_deg, span)
        if not any(c != 0 for c in den):
            continue
        g = Germ(num, den)
        if nonzero and g.is_zero():
            continue
        return g


def random_limited_germ(rng, max_deg=2, nonzero=False):
    while True:
        g = random_germ(rng, max_deg, nonzero=nonzero)
        num_deg = len(g.num) - 1
        den_deg = len(g.den) - 1
        if g.is_zero() or num_deg <= den_deg:
            if not (nonzero and g.is_zero()):
                return g


def random_natural_germ(rng, max_deg=2):
    # integer coefficients, eventually nonnegative
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(deg + 1)]
    g = Germ(tuple(coeffs))
    if g.is_zero():
        return g
    from hyperq.germ import ZERO, compare

    return g if compare(g, ZERO) >= 0 else -g


def standard_catalog():
    """Germs spanning every classification tag, a cross-check for the
    exact decisions on coded sets."""
    w, one, c = OMEGA, ONE, Germ.constant
    items = [c(q) for q in (0, 1, -1, Fraction(1, 2), Fraction(-1, 3), 2, -2,
                            Fraction(7, 3), Fraction(1, 4), Fraction(3, 4), 1000000)]
    items += [g for q in (1, -1, Fraction(1, 2), -2, Fraction(1, 3))
              for g in (c(q) / w, c(q) / (w * w), c(q) * w)]
    items += [g for q in (Fraction(1, 2), 1, 2, -1, Fraction(1, 4))
              for g in (c(q) + one / w, c(q) - one / (w * w))]
    items += [(2 * w + 3) / (w + 1), w / (w + 1), w * w + w, -(w * w) + 1,
              one / (w + 1), (w + 2) / (w ** 3 - w)]
    return tuple(items)


def check_mode(family, sets, start):
    """Check a sigma family's mode on its members ``sets``, the ones at
    k = start, start + 1, ..., pair by pair: a sample, which proves
    nothing beyond the last member, kept as an oracle for the decided
    mode.  Raises ModeViolationError naming the first failing k."""
    if family.mode == "increasing":
        for i in range(len(sets) - 1):
            if not sets[i].subset_of(sets[i + 1]):
                raise ModeViolationError(f"set at k={start + i} is not below its successor")
    elif family.mode == "decreasing":
        for i in range(len(sets) - 1):
            if not sets[i + 1].subset_of(sets[i]):
                raise ModeViolationError(f"set at k={start + i + 1} is not inside its predecessor")
    else:
        # All pieces sorted by lower cut: the sets are pairwise disjoint
        # exactly when each piece starts at or above the previous upper cut.
        spans = []
        for i, s in enumerate(sets):
            spans += ((lo, hi, i) for lo, hi in _spans(s.cuts))
        spans.sort(key=_SPAN_KEY)
        for (_, hi, i), (lo, _, j) in zip(spans, spans[1:]):
            if _order(lo, hi) < 0:
                i, j = sorted((i, j))
                raise ModeViolationError(f"sets at k={start + i} and k={start + j} overlap")


def empty_quotient_membership(monkeypatch):
    """Plant a fault in the oracle: every quotient loses its membership.
    The plant sits in the one function that decides quotient membership
    through the ultrafilter, which ``ultrapower_quotient`` and the sweeps'
    lanes share."""
    decide = finmodel._quotient_membership

    def faulty(*args):
        return dict.fromkeys(decide(*args), 0)

    monkeypatch.setattr(finmodel, "_quotient_membership", faulty)


def drop_one_quotient_pair(monkeypatch, pair=(0, 1)):
    """Plant a fault that is not uniform over the lanes: only the class
    pair ``pair`` loses its membership, so only the relations that put
    the first class in the second fail."""
    decide = finmodel._quotient_membership

    def faulty(*args):
        membership = decide(*args)
        if pair in membership:
            membership[pair] = 0
        return membership

    monkeypatch.setattr(finmodel, "_quotient_membership", faulty)


def forbid_quotients(monkeypatch):
    """Fail at once, instead of running for ever, if an input the oracle
    should refuse reaches the quotient."""

    def tripwire(base, index):
        raise AssertionError("an oversized input reached ultrapower_quotient")

    monkeypatch.setattr(finmodel, "ultrapower_quotient", tripwire)


def overlapping_classes(monkeypatch):
    """Plant a fault in the quotient's partition: the least function of
    class 0 is copied into class 1 as well, while ``class_of`` still
    names one class per function."""
    build = finmodel.ultrapower_quotient

    def faulty(base, index):
        up = build(base, index)
        if len(up.classes) < 2:
            return up
        first, second, *rest = up.classes
        return dataclasses.replace(up, classes=(first, second | {min(first)}, *rest))

    monkeypatch.setattr(finmodel, "ultrapower_quotient", faulty)
