import itertools
import time
from collections import Counter

import pytest

from helpers import (
    drop_one_quotient_pair,
    empty_quotient_membership,
    forbid_quotients,
    overlapping_classes,
)
from hyperq import finmodel as F
from hyperq.errors import EngineError


def test_ultrafilter_members_three_elements():
    uf = F.build_ultrafilter(F.FinIndex((0, 1, 2), 1))
    expected = {frozenset(s) for s in ({1}, {0, 1}, {1, 2}, {0, 1, 2})}
    assert uf.members == expected


def test_ultrafilter_singleton_index():
    uf = F.build_ultrafilter(F.FinIndex((0,), 0))
    assert uf.members == {frozenset({0})}


def test_ultrafilter_four_elements_enumerated():
    # oracle: filter all 16 subsets by membership of w
    index = F.FinIndex((0, 1, 2, 3), 2)
    uf = F.build_ultrafilter(index)
    brute = set()
    for r in range(5):
        for s in itertools.combinations(range(4), r):
            if 2 in s:
                brute.add(frozenset(s))
    assert uf.members == brute
    assert len(uf.members) == 8


def test_ultrafilter_laws_by_enumeration():
    index = F.FinIndex((0, 1, 2), 0)
    uf = F.build_ultrafilter(index)
    powerset = [
        frozenset(s)
        for r in range(4)
        for s in itertools.combinations(range(3), r)
    ]
    assert frozenset() not in uf.members
    for x in powerset:
        assert (x in uf.members) != (frozenset(set(range(3)) - x) in uf.members)
        for y in powerset:
            if x in uf.members and x <= y:
                assert y in uf.members
            if x in uf.members and y in uf.members:
                assert (x & y) in uf.members


def test_quotient_classes_agree_at_w():
    base = F.Structure((0, 1), frozenset())
    up = F.ultrapower_quotient(base, F.FinIndex((0, 1, 2), 1))
    assert up.class_of[(0, 1, 0)] == up.class_of[(1, 1, 0)]
    assert up.class_of[(0, 1, 0)] != up.class_of[(0, 0, 0)]


def test_singleton_carrier_has_one_class():
    base = F.Structure(("a",), frozenset())
    up = F.ultrapower_quotient(base, F.FinIndex((0, 1, 2), 2))
    assert len(up.classes) == 1


def test_class_count_by_enumeration():
    # oracle: partition all 9 functions of a 3-carrier over a 2-index by value at w
    base = F.Structure((0, 1, 2), frozenset())
    up = F.ultrapower_quotient(base, F.FinIndex((0, 1), 0))
    assert len(up.functions) == 9
    assert len(up.classes) == 3
    by_w = {}
    for fn in up.functions:
        by_w.setdefault(fn[0], set()).add(fn)
    assert set(map(frozenset, by_w.values())) == set(up.classes)


def test_embedding_preserves_membership():
    base = F.Structure((0, 1), frozenset({(0, 1)}))
    up = F.ultrapower_quotient(base, F.FinIndex((0, 1, 2), 1))
    assert (up.embed(0), up.embed(1)) in up.quotient.membership
    assert (up.embed(1), up.embed(0)) not in up.quotient.membership


def test_check_at_w_exhaustive():
    for size, w in ((1, 0), (2, 0), (3, 1)):
        base = F.Structure((0, 1), frozenset({(0, 1), (1, 0)}))
        up = F.ultrapower_quotient(base, F.FinIndex(tuple(range(size)), w))
        assert F.check_at_w(up) == []


def test_los_reflexive_equality():
    base = F.Structure((0, 1), frozenset())
    up = F.ultrapower_quotient(base, F.FinIndex((0, 1), 0))
    report = F.los_check(up, F.Eq("x", "x"), {"x": (0, 1)})
    assert report.quotient_truth and report.pointwise_large and report.agree


def test_los_membership_example():
    # carrier: 0 and the one-element set {0}, encoded as 1
    base = F.Structure((0, 1), frozenset({(0, 1)}))
    up = F.ultrapower_quotient(base, F.FinIndex((0, 1, 2), 0))
    report = F.los_check(up, F.In("x", "y"), {"x": (0, 0, 0), "y": (1, 0, 1)})
    assert report.pointwise_truth_set == frozenset({0, 2})
    assert report.quotient_truth and report.agree


def test_los_quantified_formula():
    base = F.Structure((0, 1), frozenset({(0, 1)}))
    up = F.ultrapower_quotient(base, F.FinIndex((0, 1, 2), 1))
    exists = F.Exists("z", F.In("z", "x"))
    report = F.los_check(up, exists, {"x": (1, 1, 0)})
    assert report.quotient_truth and report.agree


def test_los_depth_bound_enforced():
    base = F.Structure((0,), frozenset())
    up = F.ultrapower_quotient(base, F.FinIndex((0,), 0))
    deep = F.Not(F.Not(F.Eq("x", "x")))
    with pytest.raises(EngineError):
        F.los_check(up, deep, {"x": (0,)}, max_depth=2)


def test_los_missing_parameter():
    base = F.Structure((0,), frozenset())
    up = F.ultrapower_quotient(base, F.FinIndex((0,), 0))
    with pytest.raises(EngineError):
        F.los_check(up, F.In("x", "y"), {"x": (0,)})


def test_unary_relations_pass_through():
    base = F.Structure((0, 1), frozenset(), (("mark", frozenset({1})),))
    up = F.ultrapower_quotient(base, F.FinIndex((0, 1), 0))
    report = F.los_check(up, F.Has("mark", "x"), {"x": (1, 0)})
    assert report.quotient_truth and report.agree


def test_psi_empty_and_full():
    base = F.Structure((0, 1), frozenset())
    up = F.ultrapower_quotient(base, F.FinIndex((0, 1), 0))
    assert F.psi_finite(up, frozenset()).functions == frozenset()
    assert F.psi_finite(up, range(len(up.classes))).functions == frozenset(up.functions)


def test_psi_preservation_random_subsets():
    base = F.Structure((0, 1, 2), frozenset())
    up = F.ultrapower_quotient(base, F.FinIndex((0, 1, 2), 2))
    ids = range(len(up.classes))
    for xs in (frozenset(), frozenset({0}), frozenset({0, 2})):
        for ys in (frozenset({1}), frozenset({0, 1}), frozenset(ids)):
            assert all(F.psi_setop_check(up, xs, ys).values())


def _psi_by_scan(up, class_ids):
    """The code of a class set read off ``class_of`` over every function:
    the reference for psi_finite."""
    xs = frozenset(class_ids)
    return frozenset(fn for fn in up.functions if up.class_of[fn] in xs)


def test_psi_reads_the_classes():
    for c in (1, 2):
        for m in (1, 2, 3):
            for w in range(m):
                base = F.Structure(tuple(range(c)), frozenset())
                up = F.ultrapower_quotient(base, F.FinIndex(tuple(range(m)), w))
                ids = range(len(up.classes))
                for r in range(len(up.classes) + 1):
                    for xs in itertools.combinations(ids, r):
                        code = F.psi_finite(up, xs)
                        assert code.functions == _psi_by_scan(up, xs)
                        assert code.classes == frozenset(xs)


def test_overlapping_classes_fail_psi(monkeypatch):
    overlapping_classes(monkeypatch)
    up = F.ultrapower_quotient(F.Structure((0, 1), frozenset()), F.FinIndex((0, 1), 0))
    result = F.psi_setop_check(up, {0}, {1})
    assert not result["intersection"] and not result["difference"]
    report = F.psi_sweep(2, 2)
    assert report.mismatches and not report.ok


def test_small_sweeps_clean():
    assert F.los_sweep(2, 2, 2).ok
    assert F.psi_sweep(2, 2).ok


def test_formula_depth():
    assert F.formula_depth(F.In("x", "y")) == 1
    assert F.formula_depth(F.Forall("z", F.In("z", "x"))) == 2
    assert F.formula_depth(F.And(F.Not(F.Eq("x", "x")), F.Eq("x", "y"))) == 3


def test_parse_model_roundtrip():
    text = """
carrier: 0 1 2
member: 0 1
member: 1 2
index: 3
w: 1
"""
    base, index = F.parse_model(text)
    assert base.carrier == ("0", "1", "2")
    assert ("0", "1") in base.membership
    assert index.w == "1" and len(index.elements) == 3
    up = F.ultrapower_quotient(base, index)
    assert F.check_at_w(up) == []


def test_parse_model_errors():
    with pytest.raises(EngineError):
        F.parse_model("carrier: 0 1\nmember: 0 5\nindex: 2\nw: 0\n")
    with pytest.raises(EngineError):
        F.parse_model("carrier: 0\nindex: 2\n")


def test_model_sweep_checks_one_model():
    base, index = F.parse_model("carrier: 0 1 2\nmember: 0 1\nmember: 1 2\nindex: 3\nw: 1\n")
    report = F.model_sweep(base, index, 1)
    # 3 carrier values, each with a constant and a varied parameter function
    assert report.ok and report.instances == 1
    assert report.checks == len(F.gen_formulas(1)) * 6 * 6


# -- planted faults: the oracle must be able to fail ----------------------------

MODEL = "carrier: 0 1 2\nmember: 0 1\nmember: 1 2\nindex: 3\nw: 1\n"


def test_planted_fault_fails_the_los_sweep(monkeypatch):
    empty_quotient_membership(monkeypatch)
    report = F.los_sweep(2, 2, 1)
    assert report.checks == 2340 and len(report.mismatches) == 780


def test_planted_fault_fails_a_model(monkeypatch):
    empty_quotient_membership(monkeypatch)
    report = F.model_sweep(*F.parse_model(MODEL), 2)
    assert report.checks == 1800 and len(report.mismatches) == 322


def _brute_force_mismatches(up, max_depth):
    """Failed Los checks counted one formula and parameter pair at a
    time with los_check, plus the truth at w."""
    c, m = len(up.base.carrier), len(up.index.elements)
    params = [
        tuple(up.base.carrier[v] for v in f)
        for f in F._param_functions(c, m, up.index.elements.index(up.index.w))
    ]
    bad = 0
    for formula in F.gen_formulas(max_depth):
        for f in params:
            for g in params:
                r = F.los_check(up, formula, {"x": f, "y": g})
                at_w = up.index.w in r.pointwise_truth_set
                bad += not (r.agree and at_w == r.quotient_truth)
    return bad


def test_planted_fault_counts_match_los_check(monkeypatch):
    empty_quotient_membership(monkeypatch)
    bad = 0
    for c in (1, 2):
        pairs = [(a, b) for a in range(c) for b in range(c)]
        for bits in range(2 ** len(pairs)):
            rel = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            for m in (1, 2):
                for w in range(m):
                    index = F.FinIndex(tuple(range(m)), w)
                    bad += _brute_force_mismatches(
                        F.ultrapower_quotient(F.Structure(tuple(range(c)), rel), index), 1
                    )
    assert bad == len(F.los_sweep(2, 2, 1).mismatches)

    up = F.ultrapower_quotient(*F.parse_model(MODEL))
    bad = len(F.check_at_w(up)) + _brute_force_mismatches(up, 2)
    assert bad == len(F.model_sweep(*F.parse_model(MODEL), 2).mismatches)


def _brute_force_records(up, max_depth):
    """The mismatch records of one quotient, rebuilt one formula and
    parameter pair at a time from los_check plus the truth at w."""
    c, m = len(up.base.carrier), len(up.index.elements)
    params = [
        tuple(up.base.carrier[v] for v in f)
        for f in F._param_functions(c, m, up.index.elements.index(up.index.w))
    ]
    records = []
    for formula in F.gen_formulas(max_depth):
        for f in params:
            for g in params:
                r = F.los_check(up, formula, {"x": f, "y": g})
                at_w = up.index.w in r.pointwise_truth_set
                if not (r.agree and at_w == r.quotient_truth):
                    records.append((up.base, up.index, formula, f, g, r.pointwise_truth_set))
    return records


def _sweep_bases(max_carrier):
    for c in range(1, max_carrier + 1):
        pairs = [(a, b) for a in range(c) for b in range(c)]
        for bits in range(2 ** len(pairs)):
            rel = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            yield F.Structure(tuple(range(c)), rel)


@pytest.mark.parametrize("plant", [empty_quotient_membership, drop_one_quotient_pair])
def test_planted_fault_records_match_los_check(monkeypatch, plant):
    # each lane's records are one relation's, with its own truth sets
    plant(monkeypatch)
    expected = Counter()
    for base in _sweep_bases(2):
        for m in (1, 2):
            for w in range(m):
                up = F.ultrapower_quotient(base, F.FinIndex(tuple(range(m)), w))
                expected.update(_brute_force_records(up, 2))
    report = F.los_sweep(2, 2, 2)
    assert expected and Counter(report.mismatches) == expected


def test_uneven_plant_fails_some_relations_only(monkeypatch):
    # only relations that put class 0 in class 1 lose a quotient pair
    drop_one_quotient_pair(monkeypatch)
    failed = {record[0] for record in F.los_sweep(2, 2, 2).mismatches}
    bases = set(_sweep_bases(2))
    assert failed and failed < bases
    assert all((0, 1) in base.membership for base in failed)

    up = F.ultrapower_quotient(*F.parse_model(MODEL))
    records = F.check_at_w(up) + _brute_force_records(up, 2)
    assert Counter(F.model_sweep(*F.parse_model(MODEL), 2).mismatches) == Counter(records)


def _check_at_w_pairwise(up):
    """check_at_w decided one pair of functions at a time: the reference."""
    pos_w = up.index.elements.index(up.index.w)
    bad = []
    for f in up.functions:
        for g in up.functions:
            same = up.class_of[f] == up.class_of[g]
            if same != (f[pos_w] == g[pos_w]):
                bad.append(("eq", f, g))
            member = (up.class_of[f], up.class_of[g]) in up.quotient.membership
            if member != ((f[pos_w], g[pos_w]) in up.base.membership):
                bad.append(("in", f, g))
    return bad


def _moved_class(up):
    """The quotient with one function's class_of moved to the next class,
    so that both kinds of check_at_w record occur."""
    fn = max(up.functions)
    class_of = {**up.class_of, fn: (up.class_of[fn] + 1) % len(up.classes)}
    return F.FinUltrapower(up.base, up.index, up.ultrafilter, up.functions, up.classes,
                           class_of, up.quotient)


@pytest.mark.parametrize("plant", [None, empty_quotient_membership, drop_one_quotient_pair])
def test_check_at_w_matches_the_pairwise_loop(monkeypatch, plant):
    if plant is not None:
        plant(monkeypatch)
    quotients = [F.ultrapower_quotient(*F.parse_model(MODEL))]
    for base in _sweep_bases(2):
        for m in (1, 2, 3):
            quotients.append(F.ultrapower_quotient(base, F.FinIndex(tuple(range(m)), m - 1)))
    failed = set()
    for up in quotients + [_moved_class(up) for up in quotients]:
        expected = Counter(_check_at_w_pairwise(up))
        assert Counter(F.check_at_w(up)) == expected
        failed.update(kind for kind, _, _ in expected.elements())
    assert failed == {"eq", "in"}


def test_check_at_w_on_the_largest_model_is_fast():
    # 4^6 = 4096 functions, at the cap; pairwise that is 16.8 M pairs
    base, index = F.parse_model(
        "carrier: a b c d\nmember: a b\nmember: b c\nmember: c d\nmember: d d\nindex: 6\nw: 2\n")
    start = time.process_time()
    report = F.model_sweep(base, index)
    assert time.process_time() - start < 1
    assert report.ok and report.checks == 3200


def test_los_sweep_builds_one_quotient_per_index(monkeypatch):
    # the classes do not depend on the relation: one quotient per
    # carrier size, index size and distinguished point
    calls = 0
    build = F.ultrapower_quotient

    def counting(base, index):
        nonlocal calls
        calls += 1
        return build(base, index)

    monkeypatch.setattr(F, "ultrapower_quotient", counting)
    report = F.los_sweep(3, 3, 1)
    assert calls == 3 * (1 + 2 + 3)
    assert report.instances == (2 + 16 + 512) * 6


# -- input caps ----------------------------------------------------------------


@pytest.mark.parametrize("carrier, size", [((0, 1), 13), ((0,), 13), (tuple(range(5)), 6)])
def test_quotient_refuses_too_many_functions(carrier, size):
    with pytest.raises(EngineError, match=f"limit max\\(carrier, 2\\)\\^index <= {F.MAX_FUNCTIONS}"):
        F.ultrapower_quotient(F.Structure(carrier, frozenset()), F.FinIndex(tuple(range(size)), 0))


@pytest.mark.parametrize("sweep", [F.los_sweep, F.psi_sweep])
@pytest.mark.parametrize("max_index, max_carrier, limit", [
    (100, 3, F.MAX_FUNCTIONS), (8, 3, F.MAX_FUNCTIONS), (3, 4, F.MAX_SWEEP_CARRIER),
])
def test_sweeps_refuse_oversized_inputs(monkeypatch, sweep, max_index, max_carrier, limit):
    forbid_quotients(monkeypatch)
    with pytest.raises(EngineError, match=f"limit.* {limit}$"):
        sweep(max_index, max_carrier)


def test_model_caps(monkeypatch):
    forbid_quotients(monkeypatch)
    with pytest.raises(EngineError, match=f"<= {F.MAX_FUNCTIONS}$"):
        F.parse_model("carrier: 0 1 2\nindex: 100\nw: 0\n")
    atoms = " ".join(f"a{i}" for i in range(F.MAX_MODEL_CARRIER + 1))
    base, index = F.parse_model(f"carrier: {atoms}\nindex: 1\nw: 0\n")
    with pytest.raises(EngineError, match=f"limit of {F.MAX_MODEL_CARRIER}$"):
        F.model_sweep(base, index)


def test_caps_accept_the_largest_inputs(monkeypatch):
    forbid_quotients(monkeypatch)
    # parse_model checks the function count; these sit at or just under it
    for carrier, size in ((2, 12), (4, 6), (F.MAX_MODEL_CARRIER, 2)):
        atoms = " ".join(f"a{i}" for i in range(carrier))
        base, index = F.parse_model(f"carrier: {atoms}\nindex: {size}\nw: 0\n")
        assert len(base.carrier) ** len(index.elements) <= F.MAX_FUNCTIONS
    # the sweeps pass their caps and reach the quotient (the tripwire)
    for sweep in (F.los_sweep, F.psi_sweep):
        for max_index, max_carrier in ((3, 3), (7, 3), (12, 1)):
            with pytest.raises(AssertionError, match="reached ultrapower_quotient"):
                sweep(max_index, max_carrier)


@pytest.mark.parametrize("max_index, max_carrier, max_depth, message", [
    (1, 2, 7, "formula depth 7 is outside the pool's depths 1 to 2"),
    (3, 3, 0, "formula depth 0 is outside the pool's depths 1 to 2"),
    (3, 3, -3, "formula depth -3 is outside the pool's depths 1 to 2"),
    (0, 3, 2, "sweep index size 0 is below the limit of 1"),
    (3, 0, 2, "sweep carrier size 0 is below the limit of 1"),
    (-1, 3, 2, "sweep index size -1 is below the limit of 1"),
])
def test_sweeps_refuse_sizes_and_depths_outside_the_pool(
        monkeypatch, max_index, max_carrier, max_depth, message):
    forbid_quotients(monkeypatch)
    with pytest.raises(EngineError, match=f"^{message}$"):
        F.los_sweep(max_index, max_carrier, max_depth)
    if "depth" not in message:
        with pytest.raises(EngineError, match=f"^{message}$"):
            F.psi_sweep(max_index, max_carrier)


@pytest.mark.parametrize("max_depth", [0, 3, 7, -3])
def test_model_sweep_refuses_depths_outside_the_pool(monkeypatch, max_depth):
    base, index = F.parse_model(MODEL)
    forbid_quotients(monkeypatch)
    with pytest.raises(EngineError, match=f"formula depth {max_depth} is outside"):
        F.model_sweep(base, index, max_depth)
