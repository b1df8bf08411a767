"""Neutrices and external numbers over the germ field.

Within the rational-function fragment every convex additive subgroup is
either {0}, the whole field, or a valuation grade {x : valuation(x) <= g},
so a neutrix is a tag plus one integer.  The monad of 0 is grade -1, the
galaxy of 0 is grade 0.  An external number is a germ centre plus a
neutrix, with Minkowski addition and multiplication; its canonical form
drops every asymptotic term of the centre that the neutrix absorbs.
That is one polynomial division: the quotient of num*w^t by den holds
the expansion of the centre at infinity down to w^-t, t = max(0, -g-1).
Distributivity is not asserted; products are only guaranteed to contain
the Minkowski product, which matches the known algebra of these objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _poly as P
from . import exprlang as E
from . import germ as G
from .errors import EngineError
from .germ import Germ


@dataclass(frozen=True)
class Neutrix:
    kind: str  # "zero" | "graded" | "all"
    grade: int | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "graded", "all"):
            raise ValueError(f"unknown neutrix kind {self.kind!r}")
        if (self.kind == "graded") != (self.grade is not None):
            raise ValueError("graded neutrices need a grade; others must not have one")

    def contains(self, g: Germ) -> bool:
        if g.is_zero() or self.kind == "all":
            return True
        return self.kind == "graded" and G.valuation(g) <= self.grade

    def label(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "all":
            return "R"
        if self.grade == -1:
            return "M0"
        if self.grade == 0:
            return "G0"
        return f"N({self.grade})"


ZERO_N = Neutrix("zero")
ALL_N = Neutrix("all")
M0 = Neutrix("graded", -1)  # monad of 0: the infinitesimals
G0 = Neutrix("graded", 0)  # galaxy of 0: the limited germs


def graded(grade: int) -> Neutrix:
    return Neutrix("graded", grade)


def neutrix_add(n: Neutrix, m: Neutrix) -> Neutrix:
    if n.kind == "all" or m.kind == "all":
        return ALL_N
    if n.kind == "zero":
        return m
    if m.kind == "zero":
        return n
    return graded(max(n.grade, m.grade))


def neutrix_mul(n: Neutrix, m: Neutrix) -> Neutrix:
    if n.kind == "zero" or m.kind == "zero":
        return ZERO_N
    if n.kind == "all" or m.kind == "all":
        return ALL_N
    return graded(n.grade + m.grade)


def neutrix_scale(a: Germ, n: Neutrix) -> Neutrix:
    if a.is_zero() or n.kind == "zero":
        return ZERO_N
    if n.kind == "all":
        return ALL_N
    return graded(n.grade + G.valuation(a))


def _truncate(center: Germ, neutrix: Neutrix) -> Germ:
    """Drop the absorbed part of the centre: all asymptotic terms of
    valuation at most the neutrix grade."""
    if neutrix.kind != "graded":
        return center if neutrix.kind == "zero" else G.ZERO
    grade = neutrix.grade
    t = max(0, -grade - 1)
    # q[i] is the coefficient of w^(i - t) in the expansion at infinity;
    # the remainder holds only terms below w^-t, all absorbed
    q = P.divmod_(P.mul_xk(center.num, t), center.den)[0]
    kept = q[grade + t + 1:]  # the terms above the grade
    if not kept:
        return G.ZERO
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
        if self.neutrix.kind == "zero":
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


def _from_ast(node) -> ExternalNumber:
    if isinstance(node, E.NeutrixLit):
        if abs(node.grade) > G.MAX_EXPONENT:
            raise EngineError(f"neutrix grade {node.grade} exceeds the limit of "
                              f"{G.MAX_EXPONENT} in absolute value")
        return make(G.ZERO, graded(node.grade))
    if isinstance(node, E.Neg):
        return _neg(_from_ast(node.child))
    if isinstance(node, E.Add):
        return extnum_add(_from_ast(node.left), _from_ast(node.right))
    if isinstance(node, E.Sub):
        return extnum_add(_from_ast(node.left), _neg(_from_ast(node.right)))
    if isinstance(node, E.Mul):
        return extnum_mul(_from_ast(node.left), _from_ast(node.right))
    if _is_germ_only(node):
        return make(E.to_germ(node))
    if isinstance(node, E.ShadowOf):
        raise ValueError("shadow takes a germ, not an external number")
    raise ValueError("division and powers of neutrices are not supported")


def _neg(x: ExternalNumber) -> ExternalNumber:
    # negation keeps the centre truncated
    return ExternalNumber(-x.center, x.neutrix)


def _is_germ_only(node) -> bool:
    if isinstance(node, E.NeutrixLit):
        return False
    for field in getattr(node, "__dataclass_fields__", {}):
        child = getattr(node, field)
        if hasattr(child, "__dataclass_fields__") and not _is_germ_only(child):
            return False
    return True
