"""Predicate-backed codes for external collections of germs.

External sets of definable hyperrationals are proper classes when taken
extensionally, so they are carried intensionally: a CodedSet is a
decidable predicate over germs together with a universe label.  The
predicate algebra is closed under the boolean operations and under
countable unions/intersections of monotone interval families, whose
limiting sets pick up monad-edge predicates (membership "infinitely
close to the limiting endpoint").  Monotonicity on every k >= start is
decided by exact root counting, not sampled, and a member of a union
gets its least witness index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _poly as P
from . import germ as G
from .errors import EngineError, NonMonotoneGeneratorError, UniverseMismatchError
from .germ import Germ

# -- predicate nodes -----------------------------------------------------


@dataclass(frozen=True)
class Limited:
    pass


@dataclass(frozen=True)
class Infinitesimal:
    # includes zero: the only standard infinitesimal
    pass


@dataclass(frozen=True)
class StandardPred:
    pass


@dataclass(frozen=True)
class InInterval:
    lo: Germ
    hi: Germ
    lo_closed: bool
    hi_closed: bool


@dataclass(frozen=True)
class Monad:
    """Infinitely close to a fixed germ (difference infinitesimal or 0)."""

    center: Germ


@dataclass(frozen=True)
class PNot:
    child: object


@dataclass(frozen=True)
class PAnd:
    left: object
    right: object


@dataclass(frozen=True)
class POr:
    left: object
    right: object


EMPTY_PRED = PAnd(Infinitesimal(), PNot(Limited()))  # unsatisfiable


def satisfies(pred, a: Germ) -> bool:
    """Decide membership of a germ, using only comparison and
    classification."""
    if isinstance(pred, Limited):
        return G.is_limited(a)
    if isinstance(pred, Infinitesimal):
        return G.is_infinitesimal(a)
    if isinstance(pred, StandardPred):
        return a.is_constant()
    if isinstance(pred, InInterval):
        lo = G.compare(a, pred.lo)
        if lo < 0 or (lo == 0 and not pred.lo_closed):
            return False
        hi = G.compare(a, pred.hi)
        if hi > 0 or (hi == 0 and not pred.hi_closed):
            return False
        return True
    if isinstance(pred, Monad):
        return G.is_infinitesimal(a - pred.center)
    if isinstance(pred, PNot):
        return not satisfies(pred.child, a)
    if isinstance(pred, PAnd):
        return satisfies(pred.left, a) and satisfies(pred.right, a)
    if isinstance(pred, POr):
        return satisfies(pred.left, a) or satisfies(pred.right, a)
    raise TypeError(f"not a predicate: {pred!r}")


# -- coded sets ----------------------------------------------------------


@dataclass(frozen=True)
class CodedSet:
    predicate: object
    universe: str = "V"


def membership(s: CodedSet, a: Germ) -> bool:
    return satisfies(s.predicate, a)


def setops(s1: CodedSet, s2: CodedSet, op: str) -> CodedSet:
    """union | intersection | difference, pointwise on predicates."""
    if s1.universe != s2.universe:
        raise UniverseMismatchError(
            f"universes differ: {s1.universe!r} vs {s2.universe!r}"
        )
    if op == "union":
        pred = POr(s1.predicate, s2.predicate)
    elif op == "intersection":
        pred = PAnd(s1.predicate, s2.predicate)
    elif op == "difference":
        pred = PAnd(s1.predicate, PNot(s2.predicate))
    else:
        raise ValueError(f"unknown set operation {op!r}")
    return CodedSet(pred, s1.universe)


def empty_set(universe: str = "V") -> CodedSet:
    return CodedSet(EMPTY_PRED, universe)


def is_empty_on(s: CodedSet, catalog) -> bool:
    return not any(membership(s, a) for a in catalog)


def subset_on(s1: CodedSet, s2: CodedSet, catalog) -> bool:
    return is_empty_on(setops(s1, s2, "difference"), catalog)


def equivalent_on(s1: CodedSet, s2: CodedSet, catalog) -> bool:
    return all(membership(s1, a) == membership(s2, a) for a in catalog)


def standard_catalog():
    """Germs spanning every classification tag, used to compare coded
    sets pointwise."""
    w = G.OMEGA
    one = Germ.constant(1)
    items = [Germ.constant(0)]
    for q in (1, -1, Fraction(1, 2), Fraction(-1, 3), 2, -2, Fraction(7, 3),
              Fraction(1, 4), Fraction(3, 4), 1000000):
        items.append(Germ.constant(q))
    for q in (1, -1, Fraction(1, 2), -2, Fraction(1, 3)):
        items.append(Germ.constant(q) / w)
        items.append(Germ.constant(q) / (w * w))
        items.append(Germ.constant(q) * w)
    for q in (Fraction(1, 2), 1, 2, -1, Fraction(1, 4)):
        items.append(Germ.constant(q) + one / w)
        items.append(Germ.constant(q) - one / (w * w))
    items.append((2 * w + 3) / (w + 1))
    items.append(w / (w + 1))
    items.append(w * w + w)
    items.append(-(w * w) + 1)
    items.append(one / (w + 1))
    items.append((w + 2) / (w ** 3 - w))
    return tuple(items)


# -- countable operations over monotone interval families ----------------


@dataclass(frozen=True)
class CodedFamily:
    """k-indexed intervals [lo(k), hi(k)], endpoints germs in k."""

    lo: Germ
    hi: Germ
    lo_closed: bool = True
    hi_closed: bool = True
    start: int = 1
    universe: str = "V"

    def at(self, k: int) -> CodedSet:
        lo = Germ.constant(self.lo.evaluate(k))
        hi = Germ.constant(self.hi.evaluate(k))
        return CodedSet(
            InInterval(lo, hi, self.lo_closed, self.hi_closed), self.universe
        )


@dataclass(frozen=True)
class CountableOpResult:
    set: CodedSet
    op: str
    family: CodedFamily


def _direction(g: Germ, start: int) -> int:
    """Monotonicity of k -> g(k) on the integers k >= start: -1 falling,
    0 constant, +1 rising.  Decided, not sampled: no step g(k+1) - g(k)
    may have the opposite sign of the eventual one, and g may have no
    pole there."""
    den = P.scale(g.den, math.lcm(*(c.denominator for c in g.den)))
    # den has integer values, so den(k)^2 - 1 < 0 exactly where den(k) = 0
    pole = P.least_negative(P.sub(P.mul(den, den), P.ONE), start)
    if pole is not None:
        raise NonMonotoneGeneratorError(f"endpoint has a pole at k={pole}")
    shift = P.add(P.VAR, P.ONE)  # k + 1
    step = Germ(P.compose(g.num, shift), P.compose(g.den, shift)) - g
    sign = G.compare(step, G.ZERO)
    turn = P.least_negative(P.scale(P.mul(step.num, step.den), sign), start)
    if turn is not None:
        raise NonMonotoneGeneratorError(f"endpoint is not monotone at k={turn}")
    return sign


def _limit(g: Germ) -> Fraction:
    sh = G.shadow(g)
    if isinstance(sh, G.InfiniteShadow):
        raise EngineError("endpoint diverges; no limiting interval exists")
    return sh


def countable_ops(family: CodedFamily, op: str) -> CountableOpResult:
    """The union or intersection over all standard k of a nested
    monotone interval family, as a coded set.

    A union needs the intervals to grow (left endpoint falling, right
    rising); an intersection needs them to shrink.  A strictly moving
    endpoint contributes an external edge at its limit L: a union
    admits exactly the germs beyond the monad of L, an intersection
    keeps the whole monad.  Constant endpoints keep their flags.
    """
    if op not in ("union", "intersection"):
        raise ValueError(f"unknown countable operation {op!r}")
    lo_dir = _direction(family.lo, family.start)
    hi_dir = _direction(family.hi, family.start)
    if op == "union" and (lo_dir > 0 or hi_dir < 0):
        raise NonMonotoneGeneratorError("family is not growing; union needs nested intervals")
    if op == "intersection" and (lo_dir < 0 or hi_dir > 0):
        raise NonMonotoneGeneratorError("family is not shrinking; intersection needs nested intervals")

    lo_limit = _limit(family.lo)
    hi_limit = _limit(family.hi)
    left = Germ.constant(lo_limit)
    right = Germ.constant(hi_limit)
    # outer guards; the opposite side's conjunct carries the real bound
    lo_guard = Germ.constant(lo_limit - 1)
    hi_guard = Germ.constant(hi_limit + 1)

    if lo_dir == 0:
        lo_pred = InInterval(left, hi_guard, family.lo_closed, True)
    elif op == "union":
        lo_pred = PAnd(InInterval(left, hi_guard, False, True), PNot(Monad(left)))
    else:
        lo_pred = POr(InInterval(left, hi_guard, True, True), Monad(left))

    if hi_dir == 0:
        hi_pred = InInterval(lo_guard, right, True, family.hi_closed)
    elif op == "union":
        hi_pred = PAnd(InInterval(lo_guard, right, True, False), PNot(Monad(right)))
    else:
        hi_pred = POr(InInterval(lo_guard, right, True, True), Monad(right))

    pred = PAnd(lo_pred, hi_pred)
    return CountableOpResult(CodedSet(pred, family.universe), op, family)


def union_witness_bound(result: CountableOpResult, a: Germ) -> int:
    """An index B with a in family.at(k) for every k >= B, for a member
    germ of a union.  The family is nested, so the least witness is
    such a bound, and the least one."""
    if result.op != "union":
        raise ValueError("witness bounds exist for unions only")
    k = union_witness(result, a)
    if k is None:
        raise EngineError("germ is not a member of the union")
    return k


def union_witness(result: CountableOpResult, a: Germ):
    """The least standard index k with a in family.at(k) for a member a
    of a countable union; None for a non-member.  countable_ops proved
    the family nested, so that membership is monotone in k: gallop to a
    hit, then bisect."""
    if not membership(result.set, a):
        return None
    if result.op != "union":
        raise ValueError("witness bounds exist for unions only")
    fam = result.family
    lo, hi = fam.start - 1, fam.start  # a is outside family.at(lo)
    while not membership(fam.at(hi), a):
        lo, hi = hi, hi + 2 * (hi - lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if membership(fam.at(mid), a) else (mid, hi)
    return hi


# -- parsing -------------------------------------------------------------


def predicate_from_ast(node, var: str = "w"):
    from . import exprlang as E

    if isinstance(node, E.PredAtom):
        return {
            "limited": Limited(),
            "inf": Infinitesimal(),
            "std": StandardPred(),
        }[node.name]
    if isinstance(node, E.MonadOf):
        return Monad(E.to_germ(node.center, var))
    if isinstance(node, E.Interval):
        return InInterval(
            E.to_germ(node.lo, var),
            E.to_germ(node.hi, var),
            node.lo_closed,
            node.hi_closed,
        )
    if isinstance(node, E.Singleton):
        c = E.to_germ(node.value, var)
        return InInterval(c, c, True, True)
    if isinstance(node, E.NotP):
        return PNot(predicate_from_ast(node.child, var))
    if isinstance(node, E.AndP):
        return PAnd(
            predicate_from_ast(node.left, var), predicate_from_ast(node.right, var)
        )
    if isinstance(node, E.OrP):
        return POr(
            predicate_from_ast(node.left, var), predicate_from_ast(node.right, var)
        )
    raise EngineError("not a set expression")


def predicate_to_ast(pred, var: str = "w"):
    from . import exprlang as E

    if isinstance(pred, Limited):
        return E.PredAtom("limited")
    if isinstance(pred, Infinitesimal):
        return E.PredAtom("inf")
    if isinstance(pred, StandardPred):
        return E.PredAtom("std")
    if isinstance(pred, InInterval):
        return E.Interval(
            E.germ_to_ast(pred.lo, var),
            E.germ_to_ast(pred.hi, var),
            pred.lo_closed,
            pred.hi_closed,
        )
    if isinstance(pred, Monad):
        return E.MonadOf(E.germ_to_ast(pred.center, var))
    if isinstance(pred, PNot):
        return E.NotP(predicate_to_ast(pred.child, var))
    if isinstance(pred, PAnd):
        return E.AndP(predicate_to_ast(pred.left, var), predicate_to_ast(pred.right, var))
    if isinstance(pred, POr):
        return E.OrP(predicate_to_ast(pred.left, var), predicate_to_ast(pred.right, var))
    raise TypeError(f"not a predicate: {pred!r}")


def parse_predicate(text: str, universe: str = "V") -> CodedSet:
    from . import exprlang as E

    return CodedSet(predicate_from_ast(E.parse(text, "set")), universe)
