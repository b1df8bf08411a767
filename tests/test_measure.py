import random
import time
from fractions import Fraction

import pytest

from hyperq import measure as M
from hyperq.errors import (
    EngineError,
    LimitUndecidableError,
    ModeViolationError,
    NotDisjointError,
    OutOfAlgebraError,
)
from hyperq.germ import OMEGA, Germ, shadow
from hyperq.hull import MAX_CHECK_DEPTH

w = OMEGA
one = Germ.constant(1)


def iset(text):
    return M.parse_internal_set(text)


# -- independent length oracle for rational interval unions -----------------


def union_length(spans):
    """Total length of a union of closed rational intervals, by an
    endpoint sweep independent of the engine's piece machinery."""
    spans = sorted(spans)
    total = Fraction(0)
    cursor = None
    for lo, hi in spans:
        if cursor is None or lo > cursor:
            total += hi - lo
            cursor = hi
        elif hi > cursor:
            total += hi - cursor
            cursor = hi
    return total


# -- counting measure ---------------------------------------------------------


def test_whole_line_has_measure_one():
    mv = M.counting_measure(iset("[0,1]"))
    assert shadow(mv.lower) == 1 and shadow(mv.upper) == 1
    assert mv.loeb == 1


def test_bounds_straddle_true_grid_count():
    mv = M.counting_measure(iset("[1/4,3/4]"))
    n = 10 ** 4
    true_count = Fraction((3 * n) // 4 - (n + 3) // 4 + 1, n + 1)
    assert mv.lower.evaluate(n) <= true_count <= mv.upper.evaluate(n)
    assert mv.loeb == Fraction(1, 2)


def test_infinitesimal_width_has_measure_zero():
    mv = M.counting_measure(iset("[1/w, 2/w]"))
    assert mv.loeb == 0
    assert shadow(mv.lower) == 0 and shadow(mv.upper) == 0


def test_bounds_differ_by_an_infinitesimal():
    rng = random.Random(71)
    for _ in range(20):
        points = sorted(Fraction(rng.randint(0, 60), 60) for _ in range(4))
        x = M.InternalSet(
            [
                M.Piece(Germ.constant(points[0]), Germ.constant(points[1])),
                M.Piece(Germ.constant(points[2]), Germ.constant(points[3])),
            ]
        )
        mv = M.counting_measure(x)
        assert shadow(mv.upper - mv.lower) == 0
        assert shadow(mv.lower) == mv.loeb == shadow(mv.upper)


def test_counting_measure_reads_loeb_off_its_width(monkeypatch):
    sets = [iset(t) for t in ("[0,1]", "[1/w, 1/2 + 1/w] | (2/3, 1 - 1/w^2)",
                              "{1/3} | [1/2, 1/2 + 1/w)", "~[1/4, 3/4 - 1/w]")]
    expected = [M.loeb_measure(x) for x in sets]
    monkeypatch.setattr(M, "loeb_measure", lambda x: pytest.fail("walked the pieces twice"))
    assert [M.counting_measure(x).loeb for x in sets] == expected


# -- Loeb measure ---------------------------------------------------------------


def test_loeb_examples():
    assert M.loeb_measure(iset("[1/w, 1/2]")) == Fraction(1, 2)
    assert M.loeb_measure(iset("[0,1/3] | [2/3,1]")) == Fraction(2, 3)
    assert M.loeb_measure(iset("[1/2 - 1/w, 1/2 + 1/w]")) == 0


def test_normalization_merges_and_orders():
    x = iset("[1/2,3/4] | [0,1/4] | (1/4,1/2)")
    assert len(x.pieces) == 1
    assert M.loeb_measure(x) == Fraction(3, 4)


def test_piece_outside_unit_interval_rejected():
    with pytest.raises(EngineError):
        M.InternalSet([M.Piece(Germ.constant(0), Germ.constant(2))])
    with pytest.raises(EngineError):
        M.InternalSet([M.Piece(-one / w, one)])


def test_monotone_measure():
    small, big = iset("[1/4,1/2]"), iset("[0,3/4]")
    assert small.subset_of(big)
    assert M.loeb_measure(small) <= M.loeb_measure(big)


def test_complement_law():
    rng = random.Random(72)
    for _ in range(25):
        points = sorted(Fraction(rng.randint(0, 24), 24) for _ in range(4))
        x = M.InternalSet(
            [
                M.Piece(Germ.constant(points[0]), Germ.constant(points[1])),
                M.Piece(Germ.constant(points[2]), Germ.constant(points[3])),
            ]
        )
        assert M.loeb_measure(x) + M.loeb_measure(x.complement()) == 1


def test_null_when_shadows_coincide():
    x = M.InternalSet(
        [
            M.Piece(Germ.constant(Fraction(1, 3)), Germ.constant(Fraction(1, 3)) + one / w),
            M.Piece(one - one / w ** 2, one),
        ]
    )
    assert M.loeb_measure(x) == 0


# -- finite additivity -------------------------------------------------------------


def test_additivity_adjacent_intervals():
    r = M.finite_additivity_check(iset("[0,1/4]"), iset("(1/4,1/2]"))
    assert r.additive and r.total == Fraction(1, 2)


def test_additivity_with_infinitesimal_piece():
    r = M.finite_additivity_check(iset("[0,1/w]"), iset("[1/3,2/3]"))
    assert r.additive and r.total == Fraction(1, 3)


def test_additivity_random_disjoint_families():
    rng = random.Random(73)
    for _ in range(10):
        cuts = sorted(
            {Fraction(rng.randint(0, 120), 120) for _ in range(rng.randint(4, 10))}
        )
        spans = list(zip(cuts[::2], cuts[1::2]))
        rng.shuffle(spans)
        half = len(spans) // 2
        x1 = M.InternalSet(
            [M.Piece(Germ.constant(a), Germ.constant(b), True, False) for a, b in spans[:half]]
        )
        x2 = M.InternalSet(
            [M.Piece(Germ.constant(a), Germ.constant(b), True, False) for a, b in spans[half:]]
        )
        r = M.finite_additivity_check(x1, x2)
        assert r.additive


def test_overlap_rejected():
    with pytest.raises(NotDisjointError):
        M.finite_additivity_check(iset("[0,1/2]"), iset("[1/4,3/4]"))


# -- Lebesgue -----------------------------------------------------------------------


def test_lebesgue_open_interval():
    assert M.lebesgue("(1/4,3/4)") == Fraction(1, 2)


def test_lebesgue_singleton():
    assert M.lebesgue("{1/3}") == 0


def test_lebesgue_union():
    assert M.lebesgue("[0,1/3] | (1/2,1]") == Fraction(5, 6)


def test_lebesgue_random_unions_match_sweep_oracle():
    rng = random.Random(74)
    for _ in range(40):
        spans = []
        for _ in range(rng.randint(1, 5)):
            a = Fraction(rng.randint(0, 90), 90)
            b = Fraction(rng.randint(0, 90), 90)
            if a > b:
                a, b = b, a
            spans.append((a, b))
        expr = " | ".join(f"[{a},{b}]" for a, b in spans)
        assert M.lebesgue(expr) == union_length(spans)


def test_lebesgue_rejects_germ_endpoints():
    with pytest.raises(OutOfAlgebraError):
        M.lebesgue("[1/w, 1/2]")


def test_lebesgue_rejects_predicates():
    with pytest.raises(OutOfAlgebraError):
        M.lebesgue("limited")


# -- sigma families ------------------------------------------------------------------


def test_increasing_family_limit():
    cert = M.sigma_limit(M.interval_family("1/k", "1", "increasing"), 12)
    assert cert.limit == 1
    assert cert.values[0] == (1, Fraction(0))
    for k, v in cert.values:
        assert v == 1 - Fraction(1, k)


def test_dyadic_partial_sums():
    cert = M.sigma_limit(M.dyadic_family(), 30)
    assert cert.limit == 1
    for k, v in cert.values:
        assert v == 1 - Fraction(1, 2 ** (k + 1))


def test_cantor_partial_measures():
    cert = M.sigma_limit(M.cantor_family(), 40)
    assert cert.limit == 0
    for k, v in cert.values:
        assert v == Fraction(2, 3) ** k
    assert cert.materialized_to >= 10


def test_mode_violation_detected():
    bad = M.SigmaFamily(
        "increasing",
        generator=lambda k: M.InternalSet(
            [M.Piece(Germ.constant(0), Germ.constant(Fraction(1, k)))]
        ),
        start=1,
    )
    with pytest.raises(ModeViolationError):
        M.sigma_limit(bad, 6)


def test_disjoint_mode_checks_overlaps():
    bad = M.SigmaFamily(
        "disjoint",
        generator=lambda k: M.InternalSet(
            [M.Piece(Germ.constant(0), Germ.constant(Fraction(1, 2)))]
        ),
        start=1,
    )
    with pytest.raises(ModeViolationError):
        M.sigma_limit(bad, 4)


def test_disjoint_mode_check_is_not_quadratic():
    # pairwise intersection took about 8 s at this depth and grew quadratically
    fam, _ = M.parse_sigma_file("mode: disjoint\nstart: 1\npiece: (1/(k+1), 1/k]\n")
    start = time.process_time()
    with pytest.raises(LimitUndecidableError):
        M.sigma_limit(fam, 2000)
    assert time.process_time() - start < 1


def test_disjoint_mode_names_the_overlapping_sets():
    def at(k):
        lo, hi = (Fraction(1, 4), Fraction(1, 3)) if k == 700 else (Fraction(1, k + 1), Fraction(1, k))
        return M.InternalSet([M.Piece(Germ.constant(lo), Germ.constant(hi), False, True)])

    fam = M.SigmaFamily("disjoint", generator=at, start=1)
    with pytest.raises(ModeViolationError, match="^sets at k=3 and k=700 overlap$"):
        M.sigma_limit(fam, 1000)


def test_undecidable_limit_is_reported_honestly():
    # partial sums of 1/k^2 have no exact rational limit
    fam = M.SigmaFamily(
        "disjoint",
        generator=lambda k: M.InternalSet(
            [
                M.Piece(
                    Germ.constant(Fraction(1, 2) - Fraction(1, 4) * Fraction(1, k * k)),
                    Germ.constant(Fraction(1, 2)),
                    False,
                    False,
                )
            ]
        )
        if k > 1
        else M.InternalSet([M.Piece(Germ.constant(Fraction(1, 4)), Germ.constant(Fraction(1, 2)), False, False)]),
        start=1,
    )
    with pytest.raises((LimitUndecidableError, ModeViolationError)):
        M.sigma_limit(fam, 8)


def test_sigma_file_roundtrip(tmp_path):
    schema = tmp_path / "family.sigma"
    schema.write_text("mode: increasing\nstart: 1\ndepth: 8\npiece: [1/k, 1]\n")
    family, depth = M.parse_sigma_file(schema.read_text())
    assert depth == 8
    cert = M.sigma_limit(family, depth)
    assert cert.limit == 1


@pytest.mark.parametrize("family", [
    M.interval_family("1/k", "1", "increasing"), M.dyadic_family(),
], ids=["schema", "generator"])
def test_negative_depth_is_refused(family):
    with pytest.raises(EngineError, match="got -1$"):
        M.sigma_limit(family, -1)


@pytest.mark.parametrize("family", [
    M.interval_family("1/k", "1", "increasing"), M.dyadic_family(),
], ids=["schema", "generator"])
def test_depth_above_the_limit_is_refused(family):
    with pytest.raises(EngineError, match=f"limit of {MAX_CHECK_DEPTH}$"):
        M.sigma_limit(family, MAX_CHECK_DEPTH + 1)


def test_decreasing_symbolic_family():
    cert = M.sigma_limit(M.interval_family("0", "1/2 + 1/k", "decreasing", start=2), 10)
    assert cert.limit == Fraction(1, 2)
