import random
import re
import time
from fractions import Fraction
from itertools import accumulate

import pytest
from helpers import check_mode

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


def test_counting_measure_bounds_are_exact_germs_in_w():
    # width 5/6 - 1/w - 1/w^2 over two pieces, on the grid {i/w : 0 <= i <= w}
    mv = M.counting_measure(iset("[1/w, 1/2] | (2/3, 1 - 1/w^2)"))
    assert mv.lower == (5 * w ** 2 - 18 * w - 6) / (6 * w ** 2 + 6 * w)
    assert mv.upper == (5 * w ** 2 + 6 * w - 6) / (6 * w ** 2 + 6 * w)
    assert mv.loeb == Fraction(5, 6)
    # at w = 600 the grid holds i = 1..300 and i = 401..599 of 601 points
    assert mv.lower.evaluate(600) <= Fraction(499, 601) <= mv.upper.evaluate(600)


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


def test_set_is_its_cut_list():
    x = iset("[1/2,3/4] | {1/w} | (1/4,1/2)")
    assert M.InternalSet.__slots__ == ("cuts",)
    assert x.cuts == ((one / w, 0), (one / w, 1), (one / 4, 1), (3 * one / 4, 1))
    assert x.pieces == (M.Piece(one / w, one / w), M.Piece(one / 4, 3 * one / 4, False, True))
    assert M.InternalSet(x.pieces) == x
    assert str(x) == "[1/w,1/w] | (1/4,3/4]"


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


# -- complement and width: edge cases and operation counts -----------------------


def is_normal(cuts):
    return all(M._order(a, b) < 0 for a, b in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("text, expected", [
    ("[0,1]", "(empty)"),
    ("[0,1/2)", "[1/2,1]"),
    ("(0,1)", "[0,0] | [1,1]"),
    ("{0}", "(0,1]"),
    ("{1}", "[0,1)"),
    ("[1/w,1]", "[0,1/w)"),
    ("{0} | (1/3, 1/2] | {1}", "(0,1/3] | (1/2,1)"),
])
def test_complement_edge_cases(text, expected):
    x = iset(text)
    c = x.complement()
    assert str(c) == expected
    assert is_normal(c.cuts) and c.complement() == x


def test_complement_of_the_empty_set_is_the_unit_interval():
    empty = M.InternalSet([])
    assert empty.complement() == iset("[0,1]")
    assert iset("[0,1]").complement() == empty
    assert empty.complement().complement() == empty


def grid_set():
    """1000 pieces [2i/4096, (2i+1)/4096]: 13 distinct denominators."""
    at = [Germ.constant(Fraction(i, 4096)) for i in range(2000)]
    return M.InternalSet([M.Piece(at[2 * i], at[2 * i + 1]) for i in range(1000)])


def test_counting_measure_builds_one_germ_per_denominator(monkeypatch):
    x = grid_set()
    built = []
    init = Germ.__init__
    monkeypatch.setattr(Germ, "__init__", lambda self, *args: built.append(init(self, *args)))
    mv = M.counting_measure(x)
    assert len(built) <= 40  # 2008 with one germ per piece and per sum
    assert mv.loeb == Fraction(1000, 4096)


def test_complement_orders_only_its_ends(monkeypatch):
    x = grid_set()
    calls = []
    order = M._order
    monkeypatch.setattr(M, "_order", lambda a, b: calls.append(1) or order(a, b))
    c = x.complement()
    assert len(calls) <= 2  # 2001 with a sweep against [0,1]
    assert c.cuts == x.cuts[1:] + ((one, 1),)  # the cut below 0 cancels


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
    assert cert.materialized_to == 1


def test_cantor_partial_measures():
    start = time.process_time()
    cert = M.sigma_limit(M.cantor_family(), 40)
    assert time.process_time() - start < 0.1
    assert cert.limit == 0
    for k, v in cert.values:
        assert v == Fraction(2, 3) ** k
    assert cert.materialized_to == 1


def test_mode_violation_detected():
    bad = M.interval_family("0", "1/k", "increasing")
    with pytest.raises(ModeViolationError):
        M.sigma_limit(bad, 6)


def test_disjoint_mode_checks_overlaps():
    bad = M.interval_family("0", "1/2", "disjoint")
    with pytest.raises(ModeViolationError):
        M.sigma_limit(bad, 4)


@pytest.mark.parametrize("lo, hi, lo_closed, hi_closed", [
    ("1/(k+1)", "1/k", False, True),  # moving down, touching at open ends
    ("1 - 1/k", "1 - 1/(k+1)", True, False),  # moving up
    ("1/(k+2)", "1/(k+1) - 1/(k+1)^3", True, True),  # down, with gaps
], ids=["down", "up", "down-apart"])
def test_disjoint_mode_is_proved_for_one_piece(lo, hi, lo_closed, hi_closed):
    fam = M.interval_family(lo, hi, "disjoint", lo_closed, hi_closed)
    with pytest.raises(LimitUndecidableError):  # the mode holds; the limit is refused
        M.sigma_limit(fam, 4)
    check_mode(fam, [fam.at(k) for k in range(1, 62)], 1)


@pytest.mark.parametrize("lo, hi, message", [
    # closed ends: [1/3, 1/2] at k = 2 meets [1/2, 1] at k = 1
    ("1/(k+1)", "1/k", "the member of piece 1 at k=2 is not below the one at k=1"),
    ("1 - 1/k", "1 - 1/(k+1)", "the member of piece 1 at k=2 is not above the one at k=1"),
    # moving down from k = 30 on, but up before it
    ("1/2 - (k-30)^2/(4*(k-30)^2 + 4)", "1/2", "the lower end of piece 1 rises at k=1"),
], ids=["down-touching", "up-touching", "lower-end-rises"])
def test_disjoint_mode_refusals_name_the_piece_and_k(lo, hi, message):
    fam = M.interval_family(lo, hi, "disjoint")
    with pytest.raises(ModeViolationError, match=f"^disjoint mode not proved: {message}$"):
        M.sigma_limit(fam, 4)


def test_a_pole_past_the_depth_is_refused():
    fam = M.interval_family("0", "1/2 + 1/(k-30)", "increasing")
    with pytest.raises(ModeViolationError, match="^increasing mode not proved: the upper end "
                       "of piece 1 has a pole at k=30$"):
        M.sigma_limit(fam, 4)


@pytest.mark.parametrize("lo, hi, end", [
    ("1/(2*k)", "1/(2*k) + 1/(8*k^2) + 1/(1000*(k-40)^2)", "upper"),  # moving down
    ("1 - 1/(2*k) - 1/(8*k^2) - 1/(1000*(k-40)^2)", "1 - 1/(2*k+2)", "lower"),  # moving up
])
def test_a_disjoint_step_names_the_end_with_the_pole(lo, hi, end):
    fam = M.interval_family(lo, hi, "disjoint")
    with pytest.raises(ModeViolationError, match=f"^disjoint mode not proved: the {end} end "
                       "of piece 1 has a pole at k=40$"):
        M.sigma_limit(fam, 4)


def test_disjoint_mode_check_is_not_quadratic():
    # pairwise intersection took about 8 s at this depth and grew quadratically
    fam, _ = M.parse_sigma_file("mode: disjoint\nstart: 1\npiece: (1/(k+1), 1/k]\n")
    start = time.process_time()
    with pytest.raises(LimitUndecidableError):
        M.sigma_limit(fam, 2000)
    assert time.process_time() - start < 1


def test_disjoint_mode_names_the_overlapping_sets():
    # the second piece is (1/4, 1/3] at k = 700 and empty at every other k
    fam, _ = M.parse_sigma_file("mode: disjoint\npiece: (1/(k+1), 1/k]\n"
                                "piece: (1/4 + (k-700)^2, 1/3 - (k-700)^2]\n")
    with pytest.raises(ModeViolationError,
                       match="^disjoint mode not proved: it is proved for one piece, not 2$"):
        M.sigma_limit(fam, 1000)


@pytest.mark.parametrize("hi, depth", [
    # widths 1/(2k^2): the partial sums tend to pi^2/12
    ("1/(k+1) + 1/(2*k^2)", 8),
    # m(2), m(3), m(4) halve, and a geometric fit gave the limit 3/40,
    # but m(5) = 1/280, not 1/320
    ("1/(k+1) + 1/(20*k^2 - 60*k + 80)", 3),
], ids=["irrational", "geometric-prefix"])
def test_undecidable_limit_is_reported_honestly(hi, depth):
    fam = M.interval_family("1/(k+1)", hi, "disjoint", False, True)
    with pytest.raises(LimitUndecidableError, match="^no exact closed form"):
        M.sigma_limit(fam, depth)


# -- self-similar families: closed forms against materialized members -----------

_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
_UNIT = (M.Piece(Germ.constant(0), one),)
_FLIP = M.SigmaFamily("disjoint", (M.Piece(Germ.constant(_HALF), one, False),), ((-_HALF, _HALF),))
SELF_SIMILAR = {  # family, limit
    "cantor": (M.cantor_family(), 0),
    "dyadic": (M.dyadic_family(), 1),
    "halves": (M.SigmaFamily("increasing", _UNIT, ((_HALF, 0), (_HALF, _HALF))), 1),
    "flip": (_FLIP, 1),
    "mirror": (M.SigmaFamily("decreasing", _UNIT, ((-_THIRD, _THIRD), (_THIRD, 2 * _THIRD)),
                             start=3), 0),
}


@pytest.mark.parametrize("name", SELF_SIMILAR)
def test_self_similar_values_match_the_members(name):
    fam, limit = SELF_SIMILAR[name]
    cert = M.sigma_limit(fam, 8)
    members = [fam.at(k) for k in range(fam.start, fam.start + 9)]
    check_mode(fam, members, fam.start)
    measures = [M.loeb_measure(x) for x in members]
    expected = list(accumulate(measures)) if fam.mode == "disjoint" else measures
    assert cert.values == tuple(zip(range(fam.start, fam.start + 9), expected))
    assert (cert.limit, cert.materialized_to) == (limit, fam.start + 1)


def test_negative_slope_reverses_the_ends():
    members = [str(_FLIP.at(k)) for k in range(1, 5)]
    assert members == ["(1/2,1]", "[0,1/4)", "(3/8,1/2]", "[1/4,5/16)"]


@pytest.mark.parametrize("maps, error, message", [
    (((_HALF, 0), (_HALF, Fraction(1, 4))), LimitUndecidableError, "overlap in more than a point"),
    (((_HALF, Fraction(3, 4)),), EngineError,
     "^map x -> 1/2\\*x \\+ 3/4 sends \\[0,1\\] outside itself$"),
    (((-_HALF, Fraction(1, 4)),), EngineError, "outside itself"),
], ids=["overlapping-images", "image-above-1", "image-below-0"])
def test_self_similar_refusals(maps, error, message):
    with pytest.raises(error, match=message):
        M.sigma_limit(M.SigmaFamily("decreasing", _UNIT, maps), 4)


@pytest.mark.parametrize("mode, base, maps", [
    ("increasing", _UNIT, ((_THIRD, 0), (_THIRD, 2 * _THIRD))),
    ("disjoint", _UNIT, ((_THIRD, 0), (_THIRD, 2 * _THIRD))),
    ("disjoint", _UNIT, ((_HALF, _HALF),)),
    # [0,1/4], then [3/4,1], then [0,1/4] again
    ("disjoint", (M.Piece(Germ.constant(0), one / 4),), ((-1, 1),)),
], ids=["increasing", "two-maps-disjoint", "base-meets-image", "base-meets-later-member"])
def test_self_similar_mode_violation_names_the_second_member(mode, base, maps):
    with pytest.raises(ModeViolationError, match="^set at k=4 breaks the"):
        M.sigma_limit(M.SigmaFamily(mode, base, maps, start=3), 4)


def test_schema_members_evaluate_only_the_endpoints_in_k(monkeypatch):
    family, _ = M.parse_sigma_file(
        "mode: increasing\npiece: [0, 1/10]\npiece: [1/5, 3/10]\npiece: [1/2, 1 - 1/(k+1)]\n")
    evaluated = []
    evaluate = Germ.evaluate
    monkeypatch.setattr(Germ, "evaluate", lambda g, n: evaluated.append(g) or evaluate(g, n))
    member = family.at(3)
    assert member == M.InternalSet([M.Piece(Germ.constant(0), Germ.constant(Fraction(1, 10))),
                                    M.Piece(Germ.constant(Fraction(1, 5)), Germ.constant(Fraction(3, 10))),
                                    M.Piece(Germ.constant(Fraction(1, 2)), Germ.constant(Fraction(3, 4)))])
    assert [str(g) for g in evaluated] == ["w/(w + 1)"]


def test_sigma_file_roundtrip(tmp_path):
    schema = tmp_path / "family.sigma"
    schema.write_text("mode: increasing\nstart: 1\ndepth: 8\npiece: [1/k, 1]\n")
    family, depth = M.parse_sigma_file(schema.read_text())
    assert depth == 8
    cert = M.sigma_limit(family, depth)
    assert cert.limit == 1


@pytest.mark.parametrize("key, value", [("start", "x"), ("depth", "1.5"), ("depth", "")])
def test_sigma_file_refuses_values_that_are_no_integer(key, value):
    with pytest.raises(EngineError, match=f"^sigma key '{key}' needs an integer, not '{value}'$"):
        M.parse_sigma_file(f"mode: increasing\n{key}: {value}\npiece: [1/k, 1]\n")


@pytest.mark.parametrize("text, message", [
    ("mode: decreasing\nmode: increasing\nstart: 5\nstart: 1\npiece: [1/k, 1]\n",
     "sigma schema key 'mode' appears more than once"),
    ("mode: increasing\nstart: 5\nstart: 1\npiece: [1/k, 1]\n",
     "sigma schema key 'start' appears more than once"),
    ("mode: increasing\ndepth: 3\npiece: [1/k, 1]\ndepth: 4\n",
     "sigma schema key 'depth' appears more than once"),
    # the first fault in file order is the one reported
    ("mode: increasing\nstart: x\nmode: increasing\npiece: [1/k, 1]\n",
     "sigma key 'start' needs an integer, not 'x'"),
    ("mode: increasing\nmode: sideways\npiece: [1/k, 1]\n",
     "sigma schema key 'mode' appears more than once"),
    ("mode: increasing\nlimit: 1\npiece: [1/k, 1]\n", "unknown sigma schema key 'limit'"),
    ("mode: increasing\npiece [1/k, 1] # no colon\n", "bad sigma schema line: 'piece [1/k, 1]'"),
    ("mode: increasing\npiece: [0, 1/k] | [1/2, 1]\n", "piece lines must be single intervals"),
], ids=["two-modes", "two-starts", "two-depths", "bad-start-before-second-mode",
        "second-mode-before-its-value", "unknown-key", "no-colon", "two-intervals"])
def test_sigma_file_refuses_bad_lines(text, message):
    with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
        M.parse_sigma_file(text)


@pytest.mark.parametrize("family", [
    M.interval_family("1/k", "1", "increasing"), M.dyadic_family(),
], ids=["schema", "self-similar"])
def test_negative_depth_is_refused(family):
    with pytest.raises(EngineError, match="got -1$"):
        M.sigma_limit(family, -1)


@pytest.mark.parametrize("family", [
    M.interval_family("1/k", "1", "increasing"), M.dyadic_family(),
], ids=["schema", "self-similar"])
def test_depth_above_the_limit_is_refused(family):
    with pytest.raises(EngineError, match=f"limit of {MAX_CHECK_DEPTH}$"):
        M.sigma_limit(family, MAX_CHECK_DEPTH + 1)


def test_decreasing_symbolic_family():
    cert = M.sigma_limit(M.interval_family("0", "1/2 + 1/k", "decreasing", start=2), 10)
    assert cert.limit == Fraction(1, 2)
