# The hyperfinite time line, counting-measure bounds, Loeb values and
# the exact Lebesgue evaluator, plus sigma-family certificates.
# Run with: python demos/06_loeb_lebesgue_measure.py

from fractions import Fraction

from hyperq import measure as M
from hyperq.germ import shadow

print("== counting measure: germ bounds with a common shadow ==")
x = M.parse_internal_set("[1/4,3/4]")
mv = M.counting_measure(x)
print("lower bound germ:", mv.lower)
print("upper bound germ:", mv.upper)
print("value at N = 10^4:", mv.lower.evaluate(10 ** 4), "..", mv.upper.evaluate(10 ** 4))
print("common shadow (Loeb):", mv.loeb)

print()
print("== Loeb values over germ endpoints ==")
for text in ("[1/w, 1/2]", "[0,1/3] | [2/3,1]", "[1/2 - 1/w, 1/2 + 1/w]"):
    print(f"loeb {text:26s} = {M.loeb_measure(M.parse_internal_set(text))}")

print()
print("== finite additivity, exactly ==")
r = M.finite_additivity_check(
    M.parse_internal_set("[0,1/4]"), M.parse_internal_set("(1/4,1/2]")
)
print(f"{r.left} + {r.right} = {r.total}  additive: {r.additive}")

print()
print("== the Lebesgue evaluator on the interval algebra ==")
for text in ("(1/4,3/4)", "{1/3}", "[0,1/3] | (1/2,1]", "~[0,1/2)"):
    print(f"lebesgue {text:20s} = {M.lebesgue(text)}")

print()
print("== sigma families carry exact certificates ==")
cert = M.sigma_limit(M.interval_family("1/k", "1", "increasing"), 8)
print("increasing [1/k, 1]: limit", cert.limit, "by", cert.derivation)
print("  partial values:", [(k, str(v)) for k, v in cert.values])

dyadic = M.sigma_limit(M.dyadic_family(), 12)
print("disjoint dyadic (2^-(k+1), 2^-k]: limit", dyadic.limit)
print("  partial sums:", [str(v) for _, v in dyadic.values[:6]], "...")

cantor = M.sigma_limit(M.cantor_family(), 20)
print("decreasing Cantor steps: limit", cantor.limit, "by", cantor.derivation)
print("  measures:", [str(v) for _, v in cantor.values[:6]], "...")
print("  materialized up to k =", cantor.materialized_to,
      "(members 0 and 1 prove the mode and the ratio; the rest follows by induction)")
print("  value at k=20:", cantor.values[20][1], "=", Fraction(2, 3) ** 20)
