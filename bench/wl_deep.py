"""deep-symbolic: high-degree, non-constant germs.

The germ layer used the opposite way from sigma-sets: coefficient growth
in the gcd dominates, along with the linear witness scan and the
truncation loop of external numbers.  Every kind of operation gets the
same share of a pass, four operations: add, mul, div, compare and
eventually_threshold on one pair of operands at each of the degrees 4,
6, 8 and 16; four external numbers; four countable operations (two
unions with least witnesses 200 and 20000, one intersection, one union
of a family that moves the wrong way and must be refused); four hull
limits, two of which break the default modulus.  The mix per pass is
fixed; the seed draws every coefficient, from ranges narrow enough that
one draw costs about what another does.
"""

from __future__ import annotations

from fractions import Fraction

import reference as R
from exprgen import poly_text
from wl_query import ext_case, hull_limit_case

# Numerator and denominator degree of each pair of operands.  Degree 12
# is left out: its operations are bound by big-integer arithmetic, which
# slows down less than the calibration loop while the host is slow
# (calibration.py), so their scaled times swing with the host; they sat
# at the tail's rank, and the tail spread by 20 to 30 percent over five
# seeds.
ARITH_DEGREES = (4, 6, 8, 16)
COEFF_BOUND = 9  # coefficients of the operands are 5..9 in magnitude
ARITH_KINDS = ("add", "mul", "div", "compare", "threshold")
EXT_CASES = ((-10, 3), (-20, 2), (-30, 1), (-40, 1))  # (grade, denominator degree)
WITNESSES = (200, 20000)  # least witnesses sought by the unions
HULL_MODULUS_HOLDS = (True, False, True, False)


def _int_coeffs(rng, degree, span):
    """degree + 1 nonzero integer coefficients of magnitude above span / 2:
    their bit lengths, and so the cost of the gcd, vary little."""
    return [Fraction(rng.choice((-1, 1)) * rng.randint(span // 2 + 1, span)) for _ in range(degree + 1)]


def _rational(rng, degree):
    num, den = _int_coeffs(rng, degree, COEFF_BOUND), _int_coeffs(rng, degree, COEFF_BOUND)
    return f"({poly_text(num)})/({poly_text(den)})", R.RF.poly(num) / R.RF.poly(den)


def _threshold_ok(g):
    product = g.num * g.den
    return lambda n: isinstance(n, int) and n >= 1 and R.no_root_from(product, n)


def _arith(rng, degree):
    (ta, a), (tb, b) = _rational(rng, degree), _rational(rng, degree)
    answers = {"add": lambda: {"value": str(a + b)}, "mul": lambda: {"value": str(a * b)},
               "div": lambda: {"value": str(a / b)}, "compare": lambda: {"value": (a - b).sign()},
               "threshold": lambda: {"predicate": _threshold_ok(a)}}
    return [{"kind": k, "a": ta, "b": tb} for k in ARITH_KINDS], [answers[k]() for k in ARITH_KINDS]


def _ext(rng, grade, den_degree):
    """A seeded numerator over the fixed denominator w^d + 2w^(d-1) + ...
    + 2: the denominator's roots set how fast the expansion's
    coefficients grow, and so the cost, so that it does not depend on
    the draw."""
    num = _int_coeffs(rng, den_degree + 1, 5)
    den = [Fraction(2)] * den_degree + [Fraction(1)]
    center = R.RF.poly(num) / R.RF.poly(den)
    text = f"({poly_text(num)})/({poly_text(den)}) + N({grade})"
    return {"kind": "ext", "text": text}, {"value": ext_case(center, grade)[0]}


def _endpoint(rng, limit, falling):
    """A k-family endpoint tending to limit, monotone for k >= 0:
    limit +- c/(k + s), written as a sum or as one quotient.
    Returns (text, exact value at k, RF in k)."""
    s = rng.randint(0, 5)
    c = Fraction(rng.randint(1, 3) * (1 if falling else -1))
    value = lambda k: limit + c / (k + s)
    as_rf = R.RF.const(limit, R.K) + R.RF.const(c, R.K) / (R.RF.var(R.K) + R.RF.const(Fraction(s), R.K))
    if rng.random() < 0.5:
        return f"{limit} {'+' if c > 0 else '-'} {abs(c)}/(k + {s})", value, as_rf
    return f"({limit}*k + {limit * s + c})/(k + {s})", value, as_rf


def _countable(rng, op, grow, witness_size=None):
    """countable_ops on a family that grows (grow) or shrinks, with probes
    on both sides of the limits, plus union_witness for a member whose
    least witness is witness_size."""
    start = rng.randint(1, 3)
    lo_lim = Fraction(rng.randint(-3, 1))
    hi_lim = lo_lim + rng.randint(2, 4)
    lo_text, lo, lo_rf = _endpoint(rng, lo_lim, grow)
    hi_text, hi, hi_rf = _endpoint(rng, hi_lim, not grow)
    lo_closed, hi_closed = rng.random() < 0.7, rng.random() < 0.7
    spec = {"kind": "countable", "op": op, "lo": lo_text, "hi": hi_text,
            "lo_closed": lo_closed, "hi_closed": hi_closed, "start": start, "probes": [], "witness": None}
    lo_dir = R.monotone_direction(lo_rf, start)
    hi_dir = R.monotone_direction(hi_rf, start)
    if lo_dir is None or hi_dir is None or (op == "union" and (lo_dir > 0 or hi_dir < 0)) or (
            op == "intersection" and (lo_dir < 0 or hi_dir > 0)):
        return spec, {"raises": "NonMonotoneGeneratorError"}
    probes = [lo_lim, hi_lim, (lo_lim + hi_lim) / 2, lo_lim - 1, hi_lim + 1]
    if op == "union":  # some k has lo(k) <= x <= hi(k); both endpoints move strictly
        members = [lo_lim < x < hi_lim for x in probes]
    else:  # every k has lo(k) <= x <= hi(k)
        members = [lo_lim <= x <= hi_lim for x in probes]
    found = None
    if witness_size is not None:
        witness = lo(max(start, witness_size))
        found = _least_witness(lo, hi, lo_closed, hi_closed, start, witness)
        spec["witness"] = str(witness)
    spec["probes"] = [str(p) for p in probes]
    return spec, {"value": {"members": members, "witness": found}}


def _least_witness(lo, hi, lo_closed, hi_closed, start, x):
    """Brute-force least k with x in [lo(k), hi(k)]."""
    k = start
    while True:
        a, b = lo(k), hi(k)
        if (a < x or (lo_closed and a == x)) and (x < b or (hi_closed and x == b)):
            return k
        k += 1


def _hull_family(rng, holds):
    """(a*k*w + b*w + c)/(k*w + d*k + e): members tend to a + b/k and the
    diagonal to a; the default modulus holds exactly when |b| <= 1."""
    a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    b = Fraction(rng.randint(-2, 2), 2) if holds else Fraction(rng.choice((-1, 1)) * rng.randint(3, 9), 2)
    c, d, e = (Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(3))
    text = f"({a}*k*w + {b}*w + {c})/(k*w + {d}*k + {e})"

    def family(k):
        w = R.RF.var()
        kk = w if k is None else R.RF.const(Fraction(k))
        return (R.RF.const(a) * kk * w + R.RF.const(b) * w + R.RF.const(c)) / (
            kk * w + R.RF.const(d) * kk + R.RF.const(e))

    return hull_limit_case(text, family)


def build(rng, scale, workdir):
    small = scale < 1
    ops, expected = [], []

    def add(op, exp):
        ops.append(op)
        expected.append(exp)

    for degree in ARITH_DEGREES[:2] if small else ARITH_DEGREES:
        for op, exp in zip(*_arith(rng, degree)):
            add(op, exp)
    for grade, den_degree in EXT_CASES[:1] if small else EXT_CASES:
        add(*_ext(rng, grade, den_degree))
    for size in WITNESSES[:1] if small else WITNESSES:
        add(*_countable(rng, "union", True, size))
    add(*_countable(rng, "intersection", False))
    add(*_countable(rng, "union", False))  # moves the wrong way: must be refused
    for holds in HULL_MODULUS_HOLDS[:2] if small else HULL_MODULUS_HOLDS:
        add(*_hull_family(rng, holds))
    return ops, expected, {}
