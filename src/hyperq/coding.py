"""Coded sets: external collections of germs in one cut normal form.

Every convex external set of germs here is an interval whose ends are
external numbers c + N (Dinis and van den Berg 2019), so a coded set is
kept as measure's cut lists, whose cuts sit just below or above a germ
or a whole external number: ``limited`` is 0 + G0, ``inf`` is 0 + M0,
``monad(c)`` is c + M0.  ``std`` is not convex, so a set carries one
list for its standard members and one for the others; ``std`` is the
whole line in the first and empty in the second.  Emptiness, inclusion
and equality are decided by reducing the standard list to its trace on
the rationals and letting the other forget on which side of a standard
point its cuts sit; two sets are equal exactly when the reduced lists
are.  Countable unions and intersections of families proved monotone
by exact root counting cut at the monads of their limits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, reduce
from typing import NamedTuple

from . import _poly as P
from . import exprlang as E
from . import extnum as X
from . import germ as G
from .errors import EngineError, NonMonotoneGeneratorError, UniverseMismatchError
from .germ import Germ
from .measure import Piece, _cuts, _order, _sweep, piece_of

# -- the normal form -----------------------------------------------------

_LINE = X.make(G.ZERO, X.ALL_N)
_WHOLE = ((_LINE, 0), (_LINE, 1))  # the cuts of the whole line
_CUT_KEY = cmp_to_key(_order)
_KEEP = {"union": lambda a, b: a or b, "intersection": lambda a, b: a and b,
         "difference": lambda a, b: a and not b}


class Cuts(NamedTuple):
    """A coded set's normal form: strictly increasing cut lists that
    decide its standard members (``std``) and its other members."""

    std: tuple
    rest: tuple

    def combine(self, other: "Cuts", op: str) -> "Cuts":
        keep = _KEEP[op]
        return Cuts(tuple(_sweep(self.std, other.std, keep)),
                    tuple(_sweep(self.rest, other.rest, keep)))

    def union(self, other: "Cuts") -> "Cuts":
        return self.combine(other, "union")

    def intersect(self, other: "Cuts") -> "Cuts":
        return self.combine(other, "intersection")

    def complement(self) -> "Cuts":
        return Cuts(_WHOLE, _WHOLE).combine(self, "difference")


# the connectives of the set language, on normal forms
POr, PAnd, PNot = Cuts.union, Cuts.intersect, Cuts.complement


def _convex(lo, hi) -> Cuts:
    """The germs between two cuts, in both lists."""
    span = (lo, hi) if _order(lo, hi) < 0 else ()
    return Cuts(span, span)


def InInterval(lo: Germ, hi: Germ, lo_closed: bool = True, hi_closed: bool = True) -> Cuts:
    return _convex(*_cuts((Piece(lo, hi, lo_closed, hi_closed),)))


def monad(center: Germ) -> Cuts:
    """The germs infinitely close to ``center``: center + M0."""
    x = X.make(center, X.M0)
    return _convex((x, 0), (x, 1))


_GALAXY = X.make(G.ZERO, X.G0)
_ATOMS = {"limited": _convex((_GALAXY, 0), (_GALAXY, 1)), "inf": monad(G.ZERO),
          "std": Cuts(_WHOLE, ())}


@dataclass(frozen=True)
class CodedSet:
    predicate: Cuts  # the normal form
    universe: str = "V"

    def __eq__(self, other):
        """Set equality: the same universe and the same reduced form."""
        if not isinstance(other, CodedSet):
            return NotImplemented
        return self.universe == other.universe and _reduce(self.predicate) == _reduce(other.predicate)

    def __hash__(self):
        return hash((self.universe, _reduce(self.predicate)))

    def __str__(self):
        return E.format(predicate_to_ast(self.predicate))


def membership(s: CodedSet, a: Germ) -> bool:
    """Whether a is in s: an odd number of its list's cuts lie below a."""
    cuts = s.predicate.std if a.is_constant() else s.predicate.rest
    return bisect_right(cuts, _CUT_KEY((a, 0)), key=_CUT_KEY) % 2 == 1


def setops(s1: CodedSet, s2: CodedSet, op: str) -> CodedSet:
    """union | intersection | difference, one sweep per cut list."""
    if s1.universe != s2.universe:
        raise UniverseMismatchError(f"universes differ: {s1.universe!r} vs {s2.universe!r}")
    if op not in _KEEP:
        raise ValueError(f"unknown set operation {op!r}")
    return CodedSet(s1.predicate.combine(s2.predicate, op), s1.universe)


def empty_set(universe: str = "V") -> CodedSet:
    return CodedSet(Cuts((), ()), universe)


# -- exact decisions -------------------------------------------------------

_ENDS = ((-G.OMEGA, 0), (G.OMEGA, 1))  # below and above every rational


def _trace(cut):
    """A cut with the same rationals below it as ``cut``: a rational
    cut or one of _ENDS.  The only rational the cut can sit at is the
    shadow q of its centre."""
    x, side = cut
    if isinstance(x, Germ):
        x = X.ExternalNumber(x, X.ZERO_N)
    q = G.shadow(x.center)
    if isinstance(q, G.InfiniteShadow):
        return _ENDS[q.sign > 0]
    q = Germ.constant(q)
    if not x.contains(q):  # x lies on one side of q
        return (q, int(G.compare(x.center, q) > 0))
    return _ENDS[side] if x.neutrix.contains(G.ONE) else (q, side)


def _cancel(cuts) -> tuple:
    """Drop coinciding neighbours in pairs: a cut passed twice is void."""
    out = []
    for cut in cuts:
        if out and out[-1] == cut:
            out.pop()
        else:
            out.append(cut)
    return tuple(out)


def _reduce(pred: Cuts) -> Cuts:
    """The reduced cut lists.  Between two distinct reduced cuts lies a
    germ of the list's kind, so equal sets have equal reduced lists."""
    std, rest = pred
    # in the non-standard list a cut at a standard point moves below it:
    # only that point notices, and the standard list decides it
    rest = ((x, 0) if isinstance(x, Germ) and x.is_constant() else (x, side) for x, side in rest)
    return Cuts(_cancel(map(_trace, std)), _cancel(rest))


def normal_form(s: CodedSet) -> CodedSet:
    """The reduced normal form."""
    return CodedSet(_reduce(s.predicate), s.universe)


def is_empty(s: CodedSet) -> bool:
    return _reduce(s.predicate) == ((), ())


def subset(s1: CodedSet, s2: CodedSet) -> bool:
    return is_empty(setops(s1, s2, "difference"))


def equivalent(s1: CodedSet, s2: CodedSet) -> bool:
    """Sets over different universes are never equivalent."""
    return s1 == s2


def standard_catalog():
    """Germs spanning every classification tag, a cross-check for the
    exact decisions."""
    w, one, c = G.OMEGA, G.ONE, Germ.constant
    items = [c(q) for q in (0, 1, -1, Fraction(1, 2), Fraction(-1, 3), 2, -2,
                            Fraction(7, 3), Fraction(1, 4), Fraction(3, 4), 1000000)]
    items += [g for q in (1, -1, Fraction(1, 2), -2, Fraction(1, 3))
              for g in (c(q) / w, c(q) / (w * w), c(q) * w)]
    items += [g for q in (Fraction(1, 2), 1, 2, -1, Fraction(1, 4))
              for g in (c(q) + one / w, c(q) - one / (w * w))]
    items += [(2 * w + 3) / (w + 1), w / (w + 1), w * w + w, -(w * w) + 1,
              one / (w + 1), (w + 2) / (w ** 3 - w)]
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


def _limit(g: Germ) -> Germ:
    sh = G.shadow(g)
    if isinstance(sh, G.InfiniteShadow):
        raise EngineError("endpoint diverges; no limiting interval exists")
    return Germ.constant(sh)


def countable_ops(family: CodedFamily, op: str) -> CountableOpResult:
    """The union or intersection over all standard k of a nested
    monotone interval family, as a coded set.

    A union needs the intervals to grow, an intersection needs them to
    shrink.  A strictly moving end cuts at L + M0 for its limit L: a
    union takes the germs beyond that monad, an intersection keeps it.
    Constant ends keep their flags."""
    if op not in ("union", "intersection"):
        raise ValueError(f"unknown countable operation {op!r}")
    lo_dir = _direction(family.lo, family.start)
    hi_dir = _direction(family.hi, family.start)
    if op == "union" and (lo_dir > 0 or hi_dir < 0):
        raise NonMonotoneGeneratorError("family is not growing; union needs nested intervals")
    if op == "intersection" and (lo_dir < 0 or hi_dir > 0):
        raise NonMonotoneGeneratorError("family is not shrinking; intersection needs nested intervals")
    lo, hi = _limit(family.lo), _limit(family.hi)
    union = op == "union"
    lo_cut = (X.make(lo, X.M0), int(union)) if lo_dir else (lo, int(not family.lo_closed))
    hi_cut = (X.make(hi, X.M0), int(not union)) if hi_dir else (hi, int(family.hi_closed))
    return CountableOpResult(CodedSet(_convex(lo_cut, hi_cut), family.universe), op, family)


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


# -- parsing and printing ---------------------------------------------------


def predicate_from_ast(node, var: str = "w") -> Cuts:
    def atom(leaf):
        if isinstance(leaf, E.PredAtom):
            return _ATOMS[leaf.name]
        if isinstance(leaf, E.MonadOf):
            return monad(E.to_germ(leaf.center, var))
        p = piece_of(leaf, var)
        return InInterval(p.lo, p.hi, p.lo_closed, p.hi_closed)

    return E.fold(node, atom, E.SET_OPS)


def predicate_to_ast(pred: Cuts, var: str = "w"):
    """A set expression whose normal form is ``pred``."""
    std, rest = pred
    if std == rest:
        return _cuts_ast(std, var)
    parts = zip((E.PredAtom("std"), E.NotP(E.PredAtom("std"))), (std, rest))
    return reduce(E.OrP, [p if cuts == _WHOLE else E.AndP(p, _cuts_ast(cuts, var))
                          for p, cuts in parts if cuts])


def _cuts_ast(cuts: tuple, var: str):
    if not cuts:
        return E.AndP(E.PredAtom("inf"), E.NotP(E.PredAtom("limited")))
    if cuts[0] == _WHOLE[0]:  # a complement
        return E.NotP(_cuts_ast(tuple(_sweep(_WHOLE, cuts, lambda a, b: a and not b)), var))
    return reduce(E.OrP, (_piece_ast(cuts[i], cuts[i + 1], var) for i in range(0, len(cuts), 2)))


def _piece_ast(lo, hi, var: str):
    """The germs between two cuts.  At an external end they are written
    as the germs above lo and below hi in [-B, B], B = w^K beyond both."""
    (a, s), (b, t) = lo, hi
    if a == b:
        return E.Singleton(E.germ_to_ast(a, var)) if isinstance(a, Germ) else _blob_ast(a, var)
    if isinstance(a, Germ) and isinstance(b, Germ):
        return E.Interval(E.germ_to_ast(a, var), E.germ_to_ast(b, var), s == 0, t == 1)
    bound = G.OMEGA ** (1 + max(0, *(G.valuation(getattr(x, "center", x)) or 0 for x in (a, b))))
    halves = []
    for (x, side), above, end in ((lo, True, bound), (hi, False, -bound)):
        inner = side != above  # the cut takes in its own centre
        ends = E.germ_to_ast(getattr(x, "center", x), var), E.germ_to_ast(end, var)
        half = E.Interval(*ends, inner, True) if above else E.Interval(*ends[::-1], True, inner)
        if isinstance(x, X.ExternalNumber):
            blob = _blob_ast(x, var)
            half = E.OrP(half, blob) if inner else E.AndP(half, E.NotP(blob))
        halves.append(half)
    return E.AndP(*halves)


def _blob_ast(x: X.ExternalNumber, var: str):
    if x == _GALAXY:
        return E.PredAtom("limited")
    return E.PredAtom("inf") if x.center.is_zero() else E.MonadOf(E.germ_to_ast(x.center, var))


def parse_predicate(text: str, universe: str = "V") -> CodedSet:
    return CodedSet(predicate_from_ast(E.parse(text, "set")), universe)
