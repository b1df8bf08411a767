import itertools

import pytest

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
