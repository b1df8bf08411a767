"""Neutrices and external numbers over the germ field.

Within the rational-function fragment every convex additive subgroup is
a valuation grade {x : valuation(x) <= g} on the extended integers: {0}
is grade -inf and the whole field grade +inf, so a neutrix is one
number.  The monad of 0 is grade -1, the galaxy of 0 is grade 0; sums
of neutrices take the larger grade and products add grades.  An
external number is a germ centre plus a neutrix, with Minkowski
addition and multiplication; its canonical form drops every asymptotic
term of the centre that the neutrix absorbs.  That is one polynomial
division: the quotient of num*w^t by den holds the expansion of the
centre at infinity down to w^-t, t = max(0, -g-1).
Distributivity is not asserted; products are only guaranteed to contain
the Minkowski product, which matches the known algebra of these objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _poly as P
from . import exprlang as E
from . import germ as G
from .errors import EngineError
from .germ import Germ


@dataclass(frozen=True)
class Neutrix:
    grade: int | float  # an int, or -math.inf for {0} and math.inf for the field

    @property
    def kind(self) -> str:
        """"zero", "graded" or "all", read off the grade."""
        return {-math.inf: "zero", math.inf: "all"}.get(self.grade, "graded")

    def contains(self, g: Germ) -> bool:
        return g.is_zero() or G.valuation(g) <= self.grade

    def label(self) -> str:
        return _LABELS.get(self.grade, f"N({self.grade})")


_LABELS = {-math.inf: "0", math.inf: "R", -1: "M0", 0: "G0"}
ZERO_N = Neutrix(-math.inf)
ALL_N = Neutrix(math.inf)
M0 = Neutrix(-1)  # monad of 0: the infinitesimals
G0 = Neutrix(0)  # galaxy of 0: the limited germs


def graded(grade: int) -> Neutrix:
    return Neutrix(grade)


def neutrix_add(n: Neutrix, m: Neutrix) -> Neutrix:
    return n if n.grade >= m.grade else m


def neutrix_mul(n: Neutrix, m: Neutrix) -> Neutrix:
    if ZERO_N in (n, m):  # -inf + inf has no value; {0} times anything is {0}
        return ZERO_N
    return Neutrix(n.grade + m.grade)


def neutrix_scale(a: Germ, n: Neutrix) -> Neutrix:
    if a.is_zero():
        return ZERO_N
    return Neutrix(n.grade + G.valuation(a))


def _truncate(center: Germ, neutrix: Neutrix) -> Germ:
    """Drop the absorbed part of the centre: all asymptotic terms of
    valuation at most the neutrix grade."""
    grade = neutrix.grade
    if grade == -math.inf:
        return center
    if neutrix.contains(center):  # the whole field, or a centre it absorbs whole
        return G.ZERO
    t = max(0, -grade - 1)
    # q[i] is the coefficient of w^(i - t) in the expansion at infinity;
    # the remainder holds only terms below w^-t, all absorbed
    q = P.divmod_(P.mul_xk(center.num, t), center.den)[0]
    kept = q[grade + t + 1:]  # the terms above the grade
    s = next(i for i, c in enumerate(kept) if c)
    low = grade + 1 + s  # exponent of the lowest kept term
    if low >= 0:
        return Germ._make(P.mul_xk(kept[s:], low), P.ONE)
    # kept[s] != 0, so the numerator shares no factor with w^-low
    return Germ._make(kept[s:], P.mul_xk(P.ONE, -low))


@dataclass(frozen=True)
class ExternalNumber:
    center: Germ
    neutrix: Neutrix

    def __str__(self):
        if self.neutrix == ZERO_N:
            return str(self.center)
        if self.center.is_zero():
            return self.neutrix.label()
        return f"{self.center} + {self.neutrix.label()}"

    def contains(self, g: Germ) -> bool:
        return self.neutrix.contains(g - self.center)


def make(center: Germ, neutrix: Neutrix = ZERO_N) -> ExternalNumber:
    """Canonical external number with the absorbed centre part dropped."""
    return ExternalNumber(_truncate(center, neutrix), neutrix)


def canonicalize(x: ExternalNumber) -> ExternalNumber:
    return make(x.center, x.neutrix)


def extnum_add(x: ExternalNumber, y: ExternalNumber) -> ExternalNumber:
    return make(x.center + y.center, neutrix_add(x.neutrix, y.neutrix))


def extnum_mul(x: ExternalNumber, y: ExternalNumber) -> ExternalNumber:
    n = neutrix_add(
        neutrix_add(
            neutrix_scale(x.center, y.neutrix), neutrix_scale(y.center, x.neutrix)
        ),
        neutrix_mul(x.neutrix, y.neutrix),
    )
    return make(x.center * y.center, n)


def extnum_order(x: ExternalNumber, y: ExternalNumber) -> str:
    """less / greater when the two sets of representatives are fully
    separated, overlapping otherwise: they meet exactly when the
    neutrix sum absorbs the difference of the centres."""
    d = y.center - x.center
    if neutrix_add(x.neutrix, y.neutrix).contains(d):
        return "overlapping"
    return "less" if G.compare(d, G.ZERO) > 0 else "greater"


def parse_ext(text: str) -> ExternalNumber:
    """Parse an external-number expression such as ``3 + M0`` or
    ``(2 + N(-2))*(1 + M0)``."""
    return _from_ast(E.parse(text, "ext"))


def _neg(x: ExternalNumber) -> ExternalNumber:
    # negation keeps the centre truncated
    return ExternalNumber(-x.center, x.neutrix)


_OPS = {E.Neg: _neg, E.Add: extnum_add, E.Sub: lambda x, y: extnum_add(x, _neg(y)),
        E.Mul: extnum_mul}
# whether a subtree holds a neutrix literal
_HOLDS = dict.fromkeys((E.Neg, E.Add, E.Sub, E.Mul, E.Div, E.ShadowOf), lambda *held: any(held))
_HOLDS[E.Pow] = lambda held, exp: held


def _leaf(node) -> ExternalNumber:
    """A neutrix literal or a germ-only subtree.  Division, powers and
    shadows are leaves, so over a neutrix they are refused before their
    children are evaluated."""
    if isinstance(node, E.NeutrixLit):
        if abs(node.grade) > G.MAX_EXPONENT:
            raise EngineError(f"neutrix grade {node.grade} exceeds the limit of "
                              f"{G.MAX_EXPONENT} in absolute value")
        return make(G.ZERO, graded(node.grade))
    if not E.fold(node, lambda n: isinstance(n, E.NeutrixLit), _HOLDS):
        return make(E.to_germ(node))
    if isinstance(node, E.ShadowOf):
        raise ValueError("shadow takes a germ, not an external number")
    raise ValueError("division and powers of neutrices are not supported")


def _from_ast(node) -> ExternalNumber:
    return E.fold(node, _leaf, _OPS)
