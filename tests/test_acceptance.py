"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.
"""

import random
import time
from fractions import Fraction

from helpers import random_germ, random_limited_germ, random_natural_germ
from test_exprlang import random_germ_ast, random_set_ast

from hyperq import coding as C
from hyperq import exprlang as E
from hyperq import extnum as X
from hyperq import finmodel as F
from hyperq import hull as H
from hyperq import measure as M
from hyperq.germ import (
    OMEGA,
    Germ,
    compare,
    eventually_threshold,
    parse_family,
    shadow,
)

w = OMEGA
one = Germ.constant(1)


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def test_01_field_and_order_suite():
    started = time.monotonic()
    rng = random.Random(20240101)
    zero, unit = Germ.constant(0), one
    for _ in range(1000):
        a, b, c = (random_germ(rng, max_deg=2, span=6) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * unit == a
        assert a + (-a) == zero
        if not a.is_zero():
            assert a * (unit / a) == unit
        # total order compatible with the field operations
        assert compare(a, b) == -compare(b, a)
        if compare(a, b) < 0 and compare(b, c) < 0:
            assert compare(a, c) < 0
        if compare(a, b) < 0 and compare(c, zero) > 0:
            assert compare(a * c, b * c) < 0
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"field/order suite took {elapsed:.1f}s"
    report(1, "field/order suite", f"1000 triples in {elapsed:.1f}s")


def test_02_los_exhaustive_oracle():
    started = time.monotonic()
    sweep = F.los_sweep(max_index=3, max_carrier=3, max_depth=2)
    elapsed = time.monotonic() - started
    assert sweep.mismatches == []
    assert elapsed < 60.0, f"Los sweep took {elapsed:.1f}s"
    report(
        2,
        "Los exhaustive oracle",
        f"{sweep.instances} instances, {sweep.checks} checks in {elapsed:.1f}s",
    )


def test_03_psi_preservation_exhaustive():
    sweep = F.psi_sweep(max_index=3, max_carrier=3)
    assert sweep.mismatches == []
    report(3, "coding preservation", f"{sweep.checks} subset pairs")


def test_04_transfer_threshold_soundness():
    rng = random.Random(20240104)
    checked = 0
    for _ in range(200):
        g = random_germ(rng, max_deg=2, nonzero=True)
        n0 = eventually_threshold(g)
        sign = compare(g, Germ.constant(0))
        for n in (n0, n0 + 1, n0 + 7, 2 * n0 + 3, 3 * n0 + 11):
            value = g.evaluate(n)
            assert value != 0
            assert (value > 0) == (sign > 0)
            checked += 1
    report(4, "transfer thresholds", f"{checked} exact sign checks")


def test_05_hull_metric_suite():
    rng = random.Random(20240105)
    structures = (H.RATIONALS, H.NATURALS, H.vector(2))
    for structure in structures:
        for _ in range(500):
            if structure.kind == "rationals":
                reps = [random_limited_germ(rng) for _ in range(3)]
            elif structure.kind == "naturals":
                reps = [random_natural_germ(rng) for _ in range(3)]
            else:
                reps = [
                    tuple(random_limited_germ(rng) for _ in range(structure.dim))
                    for _ in range(3)
                ]
            p, q, r = (H.hull_point(structure, g) for g in reps)
            assert H.hull_dist(p, q) == H.hull_dist(q, p)
            assert (H.hull_dist(p, q) == 0) == (p == q)
            assert H.hull_dist(p, r) <= H.hull_dist(p, q) + H.hull_dist(q, r)
    for _ in range(100):
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 50))
        y = Fraction(rng.randint(-999, 999), rng.randint(1, 50))
        d = H.hull_dist(
            H.hull_point(H.RATIONALS, Germ.constant(x)),
            H.hull_point(H.RATIONALS, Germ.constant(y)),
        )
        assert d == abs(x - y)
    report(5, "hull metric suite", "3 structures x 500 triples + isometry")


def test_06_completeness_diagonal():
    cases = [
        (parse_family("k/(k+1)"), H.Modulus(1, 1), 0, one),
        (parse_family("1/3"), H.Modulus(1, 1), 0, Germ.constant(Fraction(1, 3))),
        (parse_family("1/k"), H.Modulus(1, 1), 1, Germ.constant(0)),
    ]
    for family, modulus, start, expected in cases:
        seq = H.HullSequence(H.RATIONALS, family, modulus, start=start)
        limit = H.hull_limit(seq, check_depth=20)
        assert limit.canonical == expected
        for j in range(21):
            k = modulus(j)
            assert H.hull_dist(limit, seq.member(k)) <= Fraction(1, j + 1)
    report(6, "completeness diagonal", "3 families, j <= 20")


def _union_length(spans):
    spans = sorted(spans)
    total, cursor = Fraction(0), None
    for lo, hi in spans:
        if cursor is None or lo > cursor:
            total += hi - lo
            cursor = hi
        elif hi > cursor:
            total += hi - cursor
            cursor = hi
    return total


def test_07_lebesgue_agreement():
    rng = random.Random(20240107)
    for _ in range(100):
        spans = []
        for _ in range(rng.randint(1, 6)):
            a = Fraction(rng.randint(0, 240), 240)
            b = Fraction(rng.randint(0, 240), 240)
            if a > b:
                a, b = b, a
            spans.append((a, b))
        expr = " | ".join(f"[{a},{b}]" for a, b in spans)
        assert M.lebesgue(expr) == _union_length(spans)
    a, b = Fraction(1, 4), Fraction(3, 4)
    assert M.lebesgue(f"({a},{b})") == b - a
    assert M.lebesgue("{1/3}") == 0
    report(7, "Lebesgue agreement", "100 random unions, exact")


def test_08_sigma_additivity():
    dyadic = M.sigma_limit(M.dyadic_family(), 30)
    assert dyadic.limit == 1
    for k, v in dyadic.values:
        assert v == 1 - Fraction(1, 2 ** (k + 1))
    cantor = M.sigma_limit(M.cantor_family(), 40)
    assert cantor.limit == 0
    for k, v in cantor.values:
        assert v == Fraction(2, 3) ** k
    report(8, "sigma additivity", "dyadic k<=30, Cantor k<=40, exact")


def test_09_external_number_suite():
    rng = random.Random(20240109)
    for _ in range(500):
        xs = [
            X.make(random_germ(rng, max_deg=2, span=6), X.Neutrix(rng.randint(-3, 2)))
            for _ in range(3)
        ]
        a, b, c = xs
        assert X.make(a.center, a.neutrix) == a
        assert X.extnum_add(a, b) == X.extnum_add(b, a)
        assert X.extnum_mul(a, b) == X.extnum_mul(b, a)
        assert X.extnum_add(X.extnum_add(a, b), c) == X.extnum_add(a, X.extnum_add(b, c))
        assert X.extnum_mul(X.extnum_mul(a, b), c) == X.extnum_mul(a, X.extnum_mul(b, c))
        assert X.extnum_add(a, X.make(Germ.constant(0), a.neutrix)) == a
    from test_extnum import sample_neutrix_members

    for _ in range(12):
        x = X.make(random_germ(rng, max_deg=1, span=4), X.Neutrix(rng.randint(-2, 1)))
        y = X.make(random_germ(rng, max_deg=1, span=4), X.Neutrix(rng.randint(-2, 1)))
        product = X.extnum_mul(x, y)
        for u in sample_neutrix_members(x.neutrix, rng, 20):
            for v in sample_neutrix_members(y.neutrix, rng, 20):
                assert product.contains((x.center + u) * (y.center + v))
    report(9, "external numbers", "500 algebra triples + containment")


def test_10_parser_roundtrip():
    rng = random.Random(20240110)
    for _ in range(600):
        ast = random_germ_ast(rng, rng.randint(1, 8))
        assert E.parse(E.format(ast), "germ") == ast
    for _ in range(200):
        ast = random_set_ast(rng, rng.randint(1, 6))
        assert E.parse(E.format(ast), "set") == ast
    for _ in range(200):
        ast = random_germ_ast(rng, rng.randint(1, 6), mode="ext")
        assert E.parse(E.format(ast), "ext") == ast
    report(10, "parser round-trip", "1000 random trees")
