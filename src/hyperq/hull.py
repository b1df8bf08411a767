"""Nonstandard hulls of the built-in standard metric structures.

A hull point is a finite representative germ (or germ vector) together
with a canonical form; two representatives name the same hull point
exactly when their distance is infinitesimal.  Canonicalisation
replaces quotient formation: over the rationals the canonical form is
the constant germ of the shadow, over the discrete naturals it is the
representative itself, and for vectors it is taken componentwise.  The
hull metric is the shadow of the germ distance, computed on the
canonical points: the shadow is an order-preserving ring map on limited
germs, so any representatives give the same value.

Note the hull of the rationals realised here is order-isomorphic to the
rationals again, because every limited rational-function germ has a
rational shadow; irrational shadows need sequences beyond this fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import germ as G
from .errors import (
    EngineError,
    ModulusViolationError,
    NotFinitePointError,
    StructureMismatchError,
)
from .germ import BivariateGerm, Germ


@dataclass(frozen=True)
class MetricStructure:
    kind: str  # "rationals" | "naturals" | "vector"
    dim: int = 1

    def __post_init__(self):
        if self.kind not in ("rationals", "naturals", "vector"):
            raise ValueError(f"unknown structure {self.kind!r}")
        if self.kind != "vector" and self.dim != 1:
            raise ValueError("only vector structures have a dimension")


RATIONALS = MetricStructure("rationals")
NATURALS = MetricStructure("naturals")


def vector(dim: int) -> MetricStructure:
    if dim < 1:
        raise ValueError("dimension must be positive")
    return MetricStructure("vector", dim)


def is_natural_germ(g: Germ) -> bool:
    """Eventually a nonnegative integer: an integer-valued polynomial
    that is eventually nonnegative."""
    if len(g.den) > 1:
        return False
    if any(g.evaluate(j).denominator != 1 for j in range(len(g.num) + 1)):
        return False
    return g.is_zero() or G.compare(g, G.ZERO) >= 0


def _as_point(structure: MetricStructure, g):
    if structure.kind == "vector":
        pt = tuple(Germ._coerce(c) for c in g)
        if len(pt) != structure.dim or any(c is NotImplemented for c in pt):
            raise ValueError(f"expected a vector of {structure.dim} germs")
        return pt
    pt = Germ._coerce(g)
    if pt is NotImplemented:
        raise ValueError("expected a germ")
    if structure.kind == "naturals" and not is_natural_germ(pt):
        raise NotFinitePointError("not an eventually natural-valued germ")
    return pt


def distance(structure: MetricStructure, x, y) -> Germ:
    """The germ-valued structure distance between two points."""
    x, y = _as_point(structure, x), _as_point(structure, y)
    if structure.kind == "rationals":
        return abs(x - y)
    if structure.kind == "naturals":
        return G.ZERO if x == y else G.ONE
    return max(abs(a - b) for a, b in zip(x, y))


def _finite(structure: MetricStructure, pt) -> bool:
    if structure.kind == "rationals":
        return G.is_limited(pt)
    if structure.kind == "naturals":
        return True  # the discrete distance is bounded by 1
    return all(G.is_limited(c) for c in pt)


def _canonical(structure: MetricStructure, pt):
    if structure.kind == "rationals":
        return Germ.constant(G.shadow(pt))
    if structure.kind == "naturals":
        return pt
    return tuple(Germ.constant(G.shadow(c)) for c in pt)


@dataclass(frozen=True)
class HullPoint:
    structure: MetricStructure
    representative: object
    canonical: object

    def __eq__(self, other):
        if not isinstance(other, HullPoint):
            return NotImplemented
        return self.structure == other.structure and self.canonical == other.canonical

    def __hash__(self):
        return hash((self.structure, self.canonical))

    def __str__(self):
        if self.structure.kind == "vector":
            return "(" + ", ".join(str(c) for c in self.canonical) + ")"
        return str(self.canonical)


def hull_point(structure: MetricStructure, g) -> HullPoint:
    """The hull point of a finite representative; rejects unlimited ones."""
    pt = _as_point(structure, g)
    if not _finite(structure, pt):
        raise NotFinitePointError("representative is not a finite point")
    return HullPoint(structure, pt, _canonical(structure, pt))


def hull_dist(p: HullPoint, q: HullPoint) -> Fraction:
    """Shadow of the germ distance between the canonical points; it
    equals that between any representatives, since the shadow is an
    order-preserving ring map on limited germs."""
    if p.structure != q.structure:
        raise StructureMismatchError("points live in different structures")
    return G.shadow(distance(p.structure, p.canonical, q.canonical))


def approachable(structure: MetricStructure, g) -> bool:
    """Whether standard points get arbitrarily close to g: over the
    rationals every limited germ is approachable, in the discrete
    naturals only the standard points are."""
    pt = _as_point(structure, g)
    if structure.kind == "naturals":
        return pt.is_constant()
    return _finite(structure, pt)


# -- completeness: limits along declared Cauchy families -----------------


@dataclass(frozen=True)
class Modulus:
    """Affine tolerance-to-index map j -> slope*j + intercept."""

    slope: int = 1
    intercept: int = 1

    def __call__(self, j: int) -> int:
        return self.slope * j + self.intercept


@dataclass(frozen=True)
class HullSequence:
    structure: MetricStructure
    family: BivariateGerm
    modulus: Modulus
    start: int = 0

    def member(self, k: int) -> HullPoint:
        return hull_point(self.structure, self.family.at_k(k))


# Largest depth accepted by hull_limit and measure.sigma_limit: each
# level costs at least one member, so the bound keeps a check finite.
MAX_CHECK_DEPTH = 10000


def check_depth_bound(depth: int, what: str = "depth") -> None:
    """Refuse a negative depth or one above MAX_CHECK_DEPTH."""
    if depth < 0:
        raise EngineError(f"{what} must be nonnegative, got {depth}")
    if depth > MAX_CHECK_DEPTH:
        raise EngineError(f"{what} {depth} exceeds the limit of {MAX_CHECK_DEPTH}")


def hull_limit(seq: HullSequence, check_depth: int = 8) -> HullPoint:
    """The hull point of the diagonal of the family, after validating
    the declared Cauchy modulus on sampled tolerances.

    For each j up to check_depth, sampled members past modulus(j) must
    be within 1/(j+1) of each other and of the limit.
    """
    check_depth_bound(check_depth, "check depth")
    member = cache(seq.member)  # each member is built once, when first needed
    limit = hull_point(seq.structure, G.diagonal(seq.family))
    for j in range(check_depth + 1):
        k0 = max(seq.modulus(j), seq.start)
        tol = Fraction(1, j + 1)
        a, b, c = (member(k) for k in (k0, k0 + 1, k0 + 5))
        for x, y in ((a, b), (a, c), (b, c)):
            if (d := hull_dist(x, y)) >= tol:
                raise ModulusViolationError(
                    f"members past modulus({j})={k0} are {d} apart, not within 1/{j + 1}"
                )
        for x in (a, b, c):
            if (d := hull_dist(limit, x)) > tol:
                raise ModulusViolationError(
                    f"limit is {d} from member at tolerance 1/{j + 1}"
                )
    return limit


# -- hulls of internal normed vector spaces ------------------------------


def normed_hull(dim: int, components) -> HullPoint:
    """Hull point of a vector with limited max-norm, canonicalised
    componentwise; addition and standard-rational scaling commute with
    canonicalisation."""
    return hull_point(vector(dim), tuple(components))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(q, u):
    q = Fraction(q)
    return tuple(Germ.constant(q) * a for a in u)
