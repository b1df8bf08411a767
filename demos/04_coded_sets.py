# Coded sets: external collections of germs carried as cut lists at
# external numbers c + N, with boolean and countable operations and
# exact emptiness, inclusion and equality.
# Run with: python demos/04_coded_sets.py

from fractions import Fraction

from hyperq import coding as C
from hyperq.germ import OMEGA, Germ, parse_germ, parse_germ_in_k

w = OMEGA

print("== membership is decided by classification and comparison ==")
limited = C.parse_predicate("limited")
inf = C.parse_predicate("inf")
print("3 + 1/w limited:", C.membership(limited, Germ.constant(3) + 1 / w))
print("w limited      :", C.membership(limited, w))
print("0 infinitesimal:", C.membership(inf, Germ.constant(0)))

print()
print("== boolean algebra on coded sets ==")
appreciable = C.setops(limited, inf, "difference")
for text in ("1/w", "2 + 5/w", "7/3", "w"):
    member = C.membership(appreciable, parse_germ(text))
    print(f"{text:8s} in limited minus infinitesimal: {member}")

print()
print("== the only standard infinitesimal is zero ==")
both = C.setops(C.parse_predicate("std"), inf, "intersection")
print("normal form of std & inf:", C.normal_form(both))
print("std & inf equals {0}    :", C.equivalent(both, C.parse_predicate("{0}")))

print()
print("== countable union of [1/k, 1]: the external interval (0, 1] ==")
family = C.CodedFamily(parse_germ_in_k("1/k"), parse_germ_in_k("1"), start=1)
union = C.countable_ops(family, "union")
for g, label in (
    (Germ.constant(Fraction(1, 2)), "1/2"),
    (Germ.constant(1), "1"),
    (1 / w, "1/w"),
    (Germ.constant(0), "0"),
):
    print(f"{label:4s} member: {C.membership(union.set, g)}")
half = Germ.constant(Fraction(1, 2))
print("witness index for 1/2:", C.union_witness(union, half),
      " bound:", C.union_witness_bound(union, half))

print()
print("== countable intersection of [0, 1/k]: zero plus its monad ==")
family2 = C.CodedFamily(parse_germ_in_k("0"), parse_germ_in_k("1/k"), start=1)
meet = C.countable_ops(family2, "intersection")
for g, label in ((Germ.constant(0), "0"), (1 / w ** 2, "1/w^2"),
                 (Germ.constant(Fraction(1, 100)), "1/100"), (-1 / w, "-1/w")):
    print(f"{label:6s} member: {C.membership(meet.set, g)}")
