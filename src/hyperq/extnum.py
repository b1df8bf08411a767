"""Neutrices and external numbers over the germ field.

Within the rational-function fragment every convex additive subgroup is
either {0}, the whole field, or a valuation grade {x : valuation(x) <= g},
so a neutrix is a tag plus one integer.  The monad of 0 is grade -1, the
galaxy of 0 is grade 0.  An external number is a germ centre plus a
neutrix, with Minkowski addition and multiplication; its canonical form
drops every asymptotic term of the centre that the neutrix absorbs.
Distributivity is not asserted; products are only guaranteed to contain
the Minkowski product, which matches the known algebra of these objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _poly as P
from . import germ as G
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
        if g.is_zero():
            return True
        if self.kind == "zero":
            return False
        if self.kind == "all":
            return True
        return G.valuation(g) <= self.grade

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
    if neutrix.kind == "all":
        return G.ZERO
    if neutrix.kind == "zero":
        return center
    kept = G.ZERO
    rest = center
    while not rest.is_zero():
        v = G.valuation(rest)
        if v <= neutrix.grade:
            break
        coeff = P.lc(rest.num) / P.lc(rest.den)
        term = Germ.constant(coeff) * (G.OMEGA ** v)
        kept = kept + term
        rest = rest - term
    return kept


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
    separated, overlapping otherwise."""
    d = y.center - x.center
    if d.is_zero():
        return "overlapping"
    if x.neutrix.kind == "all" or y.neutrix.kind == "all":
        return "overlapping"
    v = G.valuation(d)
    for n in (x.neutrix, y.neutrix):
        if n.kind == "graded" and v <= n.grade:
            return "overlapping"
    return "less" if G.compare(d, G.ZERO) > 0 else "greater"


def parse_ext(text: str) -> ExternalNumber:
    """Parse an external-number expression such as ``3 + M0`` or
    ``(2 + N(-2))*(1 + M0)``."""
    from . import exprlang as E

    return _from_ast(E.parse(text, "ext"))


def _from_ast(node) -> ExternalNumber:
    from . import exprlang as E

    if isinstance(node, E.NeutrixLit):
        return make(G.ZERO, graded(node.grade))
    if isinstance(node, E.Neg):
        inner = _from_ast(node.child)
        return make(-inner.center, inner.neutrix)
    if isinstance(node, E.Add):
        return extnum_add(_from_ast(node.left), _from_ast(node.right))
    if isinstance(node, E.Sub):
        rhs = _from_ast(node.right)
        return extnum_add(_from_ast(node.left), make(-rhs.center, rhs.neutrix))
    if isinstance(node, E.Mul):
        return extnum_mul(_from_ast(node.left), _from_ast(node.right))
    if _is_germ_only(node):
        return make(E.to_germ(node))
    raise ValueError("division and powers of neutrices are not supported")


def _is_germ_only(node) -> bool:
    from . import exprlang as E

    if isinstance(node, E.NeutrixLit):
        return False
    for field in getattr(node, "__dataclass_fields__", {}):
        child = getattr(node, field)
        if hasattr(child, "__dataclass_fields__") and not _is_germ_only(child):
            return False
    return True
