"""The hyperfinite time line, its Loeb and Lebesgue measures, and the cut
algebra its internal sets share with coded sets.

The time line is the grid {i/N : 0 <= i <= N} for an unlimited germ N
(default w).  An internal set is a union of germ-endpoint intervals
inside [0,1], intersected with the grid.  Its normal form is a sorted
list of cuts, two per piece: a cut (g, side) lies just below g (side 0)
or just above it (side 1), so a closed lower end or an open upper end
at g is the cut (g, 0), and an open lower end or a closed upper end is
(g, 1).  Coded sets also cut below or above a whole external number
c + N; germ cuts are the case N = 0.  A list is normal when its cuts
strictly increase.  Union, intersection, difference and complement are
one merge of two cut lists that emits a cut wherever the boolean
combination of the two memberships changes, so their results are
normal by construction; only the constructor sorts and merges
arbitrary pieces.

The counting measure of an internal set is carried as a pair of exact
germ bounds that differ by an infinitesimal; its shadow is the Loeb
value, and on rational-endpoint sets the Loeb value is the Lebesgue
measure.

Sigma-additivity is exercised through generated families with
certificates: exact partial values plus an exact limit, obtained either
from the shadow of a symbolic width (endpoints rational in the family
index) or from an exactly verified geometric difference pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate
from typing import Callable, Optional

from . import exprlang as E
from . import germ as G
from .errors import (
    EngineError,
    LimitUndecidableError,
    ModeViolationError,
    NotDisjointError,
    OutOfAlgebraError,
    read_int,
)
from .extnum import ZERO_N, ExternalNumber, extnum_order
from .germ import Germ
from .hull import check_depth_bound, is_natural_germ

_ZERO = Germ.constant(0)
_ONE = Germ.constant(1)


@dataclass(frozen=True)
class TimeLine:
    size: Germ = G.OMEGA

    def __post_init__(self):
        if not is_natural_germ(self.size) or G.is_limited(self.size):
            raise EngineError("grid size must be an unlimited natural germ")


DEFAULT_TIMELINE = TimeLine()


def _order(x, y) -> int:
    """Sign of cut x minus cut y.  The cut (g, 0) lies just below the
    germ or external number g and (g, 1) just above it.  Germ cuts order
    by germ, then by side.  Two external numbers either are disjoint and
    ordered, or one holds the other, and then the larger one's side
    decides; for equal ones the sides do."""
    a, b = x[0], y[0]
    if type(a) is Germ is type(b):
        return G.compare(a, b) or x[1] - y[1]
    a, b = (g if isinstance(g, ExternalNumber) else ExternalNumber(g, ZERO_N) for g in (a, b))
    relation = extnum_order(a, b)
    if relation != "overlapping":
        return -1 if relation == "less" else 1
    ga, gb = a.neutrix.grade, b.neutrix.grade
    if ga == gb:
        return x[1] - y[1]
    if ga > gb:
        return 1 if x[1] else -1
    return -1 if y[1] else 1


def _cuts(pieces) -> list:
    """Two cuts per piece: closed lower and open upper ends sit below
    their germ, open lower and closed upper ends above it."""
    out = []
    for p in pieces:
        out += ((p.lo, int(not p.lo_closed)), (p.hi, int(p.hi_closed)))
    return out


@dataclass(frozen=True)
class Piece:
    lo: Germ
    hi: Germ
    lo_closed: bool = True
    hi_closed: bool = True

    def is_empty(self) -> bool:
        return _order(*_cuts((self,))) >= 0

    def width(self) -> Germ:
        return self.hi - self.lo


def _sweep(a: list, b: list, keep) -> list:
    """Cuts of {x : keep(x in A, x in B)} from the sorted cuts of A and B.

    Coinciding cuts are passed together and a cut is emitted wherever
    ``keep`` changes value, so the output is strictly increasing: its
    pieces are sorted, non-empty, disjoint and not mergeable.
    """
    out, i, j = [], 0, 0
    in_a = in_b = inside = False
    while i < len(a) or j < len(b):
        c = 1 if i == len(a) else -1 if j == len(b) else _order(a[i], b[j])
        cut = a[i] if c <= 0 else b[j]
        if c <= 0:
            in_a, i = not in_a, i + 1
        if c >= 0:
            in_b, j = not in_b, j + 1
        if keep(in_a, in_b) != inside:
            inside = not inside
            out.append(cut)
    return out


def _pieces(cuts) -> tuple:
    pairs = zip(cuts[::2], cuts[1::2])
    return tuple(Piece(lo[0], hi[0], lo[1] == 0, hi[1] == 1) for lo, hi in pairs)


def _from_cuts(cuts, timeline) -> "InternalSet":
    """An InternalSet on a cut list that is already normal."""
    x = object.__new__(InternalSet)
    x.pieces, x.timeline = _pieces(cuts), timeline
    return x


_UNIT = [(_ZERO, 0), (_ONE, 1)]  # the cuts of [0,1]
_SPAN_KEY = cmp_to_key(lambda s, t: _order(s[0], t[0]))


class InternalSet:
    """A normalized disjoint union of germ-endpoint intervals in [0,1].

    ``pieces`` is normal: as two cuts per piece it is a strictly
    increasing cut list.  The constructor validates, sorts and merges
    arbitrary pieces; set-algebra results leave the cut sweep normal.
    """

    __slots__ = ("timeline", "pieces")

    def __init__(self, pieces, timeline: TimeLine = DEFAULT_TIMELINE):
        spans = []
        for p in pieces:
            if not isinstance(p, Piece):
                p = Piece(*p)
            if p.is_empty():
                continue
            if G.compare(p.lo, _ZERO) < 0 or G.compare(p.hi, _ONE) > 0:
                raise EngineError(f"piece {p} leaves [0,1]")
            spans.append(_cuts((p,)))
        spans.sort(key=_SPAN_KEY)
        cuts = []
        for lo, hi in spans:
            if not cuts or _order(lo, cuts[-1]) > 0:
                cuts += (lo, hi)
            elif _order(hi, cuts[-1]) > 0:
                cuts[-1] = hi
        self.pieces = _pieces(cuts)
        self.timeline = timeline

    def __eq__(self, other):
        if not isinstance(other, InternalSet):
            return NotImplemented
        return self.timeline == other.timeline and self.pieces == other.pieces

    def __hash__(self):
        return hash((self.timeline, self.pieces))

    def __str__(self):
        if not self.pieces:
            return "(empty)"
        parts = []
        for p in self.pieces:
            left = "[" if p.lo_closed else "("
            right = "]" if p.hi_closed else ")"
            parts.append(f"{left}{p.lo},{p.hi}{right}")
        return " | ".join(parts)

    def is_empty(self) -> bool:
        return not self.pieces

    # -- set algebra: one sweep over the cuts of both operands ---------

    def _combine(self, other: "InternalSet", keep) -> "InternalSet":
        if self.timeline != other.timeline:
            raise EngineError("sets live on different time lines")
        cuts = _sweep(_cuts(self.pieces), _cuts(other.pieces), keep)
        return _from_cuts(cuts, self.timeline)

    def union(self, other: "InternalSet") -> "InternalSet":
        return self._combine(other, lambda a, b: a or b)

    def intersect(self, other: "InternalSet") -> "InternalSet":
        return self._combine(other, lambda a, b: a and b)

    def difference(self, other: "InternalSet") -> "InternalSet":
        return self._combine(other, lambda a, b: a and not b)

    def complement(self) -> "InternalSet":
        """The complement within [0,1]."""
        cuts = _sweep(_UNIT, _cuts(self.pieces), lambda a, b: a and not b)
        return _from_cuts(cuts, self.timeline)

    def subset_of(self, other: "InternalSet") -> bool:
        return self.difference(other).is_empty()

    def is_disjoint_from(self, other: "InternalSet") -> bool:
        return self.intersect(other).is_empty()


@dataclass(frozen=True)
class MeasureValue:
    loeb: Fraction
    lower: Germ
    upper: Germ


def counting_measure(x: InternalSet) -> MeasureValue:
    """Exact germ bounds on |X|/|T| whose shadows agree, plus that
    common shadow, the shadow of the summed width, as the Loeb value."""
    n = x.timeline.size
    width = sum((p.width() for p in x.pieces), _ZERO)
    slack = Germ.constant(len(x.pieces))
    lower = (width * n - slack) / (n + 1)
    upper = (width * n + slack) / (n + 1)
    return MeasureValue(_clamp(G.shadow(width)), lower, upper)


def loeb_measure(x: InternalSet) -> Fraction:
    """Sum of shadow widths of the normalized pieces, clamped to [0,1]."""
    return _clamp(sum((G.shadow(p.hi) - G.shadow(p.lo) for p in x.pieces), Fraction(0)))


def _clamp(q: Fraction) -> Fraction:
    return max(Fraction(0), min(Fraction(1), q))


@dataclass(frozen=True)
class AdditivityReport:
    left: Fraction
    right: Fraction
    total: Fraction
    additive: bool


def finite_additivity_check(x1: InternalSet, x2: InternalSet) -> AdditivityReport:
    if not x1.is_disjoint_from(x2):
        raise NotDisjointError("sets overlap; additivity needs disjoint sets")
    left, right = loeb_measure(x1), loeb_measure(x2)
    total = loeb_measure(x1.union(x2))
    return AdditivityReport(left, right, total, left + right == total)


# -- the standard interval algebra on [0,1] ------------------------------


def piece_of(leaf, var: str = "w") -> Piece:
    """The piece an interval or singleton leaf names."""
    if isinstance(leaf, E.Interval):
        lo, hi = E.to_germ(leaf.lo, var), E.to_germ(leaf.hi, var)
        return Piece(lo, hi, leaf.lo_closed, leaf.hi_closed)
    if isinstance(leaf, E.Singleton):
        c = E.to_germ(leaf.value, var)
        return Piece(c, c)
    raise OutOfAlgebraError("expected intervals, singletons and set operations")


def internal_set_from_ast(node, timeline: TimeLine = DEFAULT_TIMELINE) -> InternalSet:
    return E.fold(node, lambda leaf: InternalSet([piece_of(leaf)], timeline), E.SET_OPS)


def parse_internal_set(text: str, timeline: TimeLine = DEFAULT_TIMELINE) -> InternalSet:
    return internal_set_from_ast(E.parse(text, "set"), timeline)


def lebesgue(expr) -> Fraction:
    """The exact Lebesgue measure of a finite union of rational-endpoint
    intervals and singletons inside [0,1], evaluated through the
    counting measure on the hyperfinite grid."""
    def atom(leaf):
        piece = piece_of(leaf)
        if not (piece.lo.is_constant() and piece.hi.is_constant()):
            raise OutOfAlgebraError("Lebesgue evaluation needs rational endpoints")
        return InternalSet([piece])

    node = E.parse(expr, "set") if isinstance(expr, str) else expr
    return loeb_measure(E.fold(node, atom, E.SET_OPS))


# -- sigma families -------------------------------------------------------


@dataclass(frozen=True)
class PieceSchema:
    """Interval template with endpoints given as germs in k."""

    lo: Germ
    hi: Germ
    lo_closed: bool = True
    hi_closed: bool = True


@dataclass(frozen=True)
class SigmaFamily:
    mode: str  # "increasing" | "decreasing" | "disjoint"
    schema: Optional[tuple] = None  # tuple of PieceSchema
    generator: Optional[Callable[[int], InternalSet]] = None
    start: int = 1
    timeline: TimeLine = DEFAULT_TIMELINE

    def __post_init__(self):
        if self.mode not in ("increasing", "decreasing", "disjoint"):
            raise ValueError(f"unknown sigma mode {self.mode!r}")
        if (self.schema is None) == (self.generator is None):
            raise ValueError("provide exactly one of schema or generator")

    def at(self, k: int) -> InternalSet:
        if self.generator is not None:
            return self.generator(k)
        pieces = [
            Piece(
                Germ.constant(s.lo.evaluate(k)),
                Germ.constant(s.hi.evaluate(k)),
                s.lo_closed,
                s.hi_closed,
            )
            for s in self.schema
        ]
        return InternalSet(pieces, self.timeline)


@dataclass(frozen=True)
class SigmaCertificate:
    mode: str
    values: tuple  # ((k, Fraction), ...): measures, or partial sums when disjoint
    limit: Fraction
    materialized_to: int
    derivation: str


def _check_mode(family: SigmaFamily, sets: list, start: int):
    if family.mode == "increasing":
        for i in range(len(sets) - 1):
            if not sets[i].subset_of(sets[i + 1]):
                raise ModeViolationError(f"set at k={start + i} is not below its successor")
    elif family.mode == "decreasing":
        for i in range(len(sets) - 1):
            if not sets[i + 1].subset_of(sets[i]):
                raise ModeViolationError(f"set at k={start + i + 1} is not inside its predecessor")
    else:
        # All pieces sorted by lower cut: the sets are pairwise disjoint
        # exactly when each piece starts at or above the previous upper cut.
        spans = []
        for i, s in enumerate(sets):
            cuts = _cuts(s.pieces)
            spans += ((lo, hi, i) for lo, hi in zip(cuts[::2], cuts[1::2]))
        spans.sort(key=_SPAN_KEY)
        for (_, hi, i), (lo, _, j) in zip(spans, spans[1:]):
            if _order(lo, hi) < 0:
                i, j = sorted((i, j))
                raise ModeViolationError(f"sets at k={start + i} and k={start + j} overlap")


def _geometric_extension(values, depth, start):
    """Detect an exactly geometric difference pattern; return
    (limit, extended values) or None."""
    diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    if not diffs:
        return None
    if all(d == 0 for d in diffs):
        const = values[-1]
        full = list(values) + [const] * (depth + 1 - len(values))
        return const, full, "eventually-constant values"
    if any(d == 0 for d in diffs) or len(diffs) < 3:
        return None
    ratio = diffs[1] / diffs[0]
    if abs(ratio) >= 1:
        return None
    for i in range(len(diffs) - 1):
        if diffs[i + 1] != diffs[i] * ratio:
            return None
    limit = values[0] + diffs[0] / (1 - ratio)
    full = list(values)
    d = diffs[-1] * ratio
    while len(full) < depth + 1:
        full.append(full[-1] + d)
        d *= ratio
    return limit, full, f"geometric differences with ratio {ratio}"


def sigma_limit(
    family: SigmaFamily, depth: int, piece_budget: int = 20000
) -> SigmaCertificate:
    """Exact partial values and the exact limit of a sigma family.

    Monotone modes report the member measures; the disjoint mode
    reports partial sums.  Values are computed directly while the
    materialized sets stay within the piece budget; past that point a
    difference pattern verified exactly on the whole prefix (constant
    or geometric) extends the certificate, since e.g. halving
    constructions square their piece count at every step.
    """
    check_depth_bound(depth)
    start = family.start
    sets, spent = [], 0
    for k in range(start, start + depth + 1):
        s = family.at(k)
        spent += max(len(s.pieces), 1)
        if sets and spent > piece_budget:
            break
        sets.append(s)
    _check_mode(family, sets, start)
    measures = [loeb_measure(s) for s in sets]
    values = list(accumulate(measures)) if family.mode == "disjoint" else measures
    materialized_to = start + len(values) - 1

    limit = None
    derivation = ""
    if family.mode != "disjoint" and family.schema is not None:
        width = sum((s.hi - s.lo for s in family.schema), _ZERO)
        if all(
            width.evaluate(start + i) == values[i] for i in range(len(values))
        ):
            sh = G.shadow(width)
            if not isinstance(sh, G.InfiniteShadow):
                limit = _clamp(sh)
                derivation = "shadow of the symbolic width in the family index"

    full_values = values
    if limit is None:
        ext = _geometric_extension(values, depth, start)
        if ext is None:
            raise LimitUndecidableError(
                "no exact closed form found for the value sequence"
            )
        limit, full_values, derivation = ext
    elif len(full_values) < depth + 1:
        full_values = list(values) + [
            loeb_measure(family.at(k))
            for k in range(materialized_to + 1, start + depth + 1)
        ]

    pairs = tuple((start + i, v) for i, v in enumerate(full_values))
    return SigmaCertificate(family.mode, pairs, limit, materialized_to, derivation)


# -- stock families --------------------------------------------------------


def dyadic_family(timeline: TimeLine = DEFAULT_TIMELINE) -> SigmaFamily:
    """The disjoint family (2^-(k+1), 2^-k] for k >= 0; partial sums
    1 - 2^-(k+1) with limit 1."""

    def gen(k: int) -> InternalSet:
        lo = Fraction(1, 2 ** (k + 1))
        hi = Fraction(1, 2 ** k)
        return InternalSet(
            [Piece(Germ.constant(lo), Germ.constant(hi), False, True)], timeline
        )

    return SigmaFamily("disjoint", generator=gen, start=0, timeline=timeline)


def cantor_family(timeline: TimeLine = DEFAULT_TIMELINE) -> SigmaFamily:
    """Middle-thirds construction as a decreasing family: step k keeps
    2^k closed pieces of total measure (2/3)^k."""

    def step(k: int):
        spans = [(Fraction(0), Fraction(1))]
        for _ in range(k):
            nxt = []
            for lo, hi in spans:
                third = (hi - lo) / 3
                nxt.append((lo, lo + third))
                nxt.append((hi - third, hi))
            spans = nxt
        return spans

    def gen(k: int) -> InternalSet:
        return InternalSet(
            [
                Piece(Germ.constant(lo), Germ.constant(hi), True, True)
                for lo, hi in step(k)
            ],
            timeline,
        )

    return SigmaFamily("decreasing", generator=gen, start=0, timeline=timeline)


def interval_family(
    lo_expr: str,
    hi_expr: str,
    mode: str,
    lo_closed: bool = True,
    hi_closed: bool = True,
    start: int = 1,
    timeline: TimeLine = DEFAULT_TIMELINE,
) -> SigmaFamily:
    """A single-interval symbolic family with endpoints in k."""
    schema = (
        PieceSchema(
            G.parse_germ_in_k(lo_expr), G.parse_germ_in_k(hi_expr), lo_closed, hi_closed
        ),
    )
    return SigmaFamily(mode, schema=schema, start=start, timeline=timeline)


def parse_sigma_file(text: str):
    """Plain-text sigma schema: ``mode:``, optional ``start:`` and
    ``depth:``, and one ``piece: [lo, hi]`` line per interval, with
    endpoints rational in k."""
    mode = None
    start = 1
    depth = None
    schemas = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise EngineError(f"bad sigma schema line: {line!r}")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "mode":
            if value not in ("increasing", "decreasing", "disjoint"):
                raise EngineError(f"unknown mode {value!r}")
            mode = value
        elif key == "start":
            start = read_int(value, "sigma key 'start'")
        elif key == "depth":
            depth = read_int(value, "sigma key 'depth'")
        elif key == "piece":
            node = E.parse(value, "kset")
            if not isinstance(node, E.Interval):
                raise EngineError("piece lines must be single intervals")
            schemas.append(
                PieceSchema(
                    E.to_germ(node.lo, var="k"),
                    E.to_germ(node.hi, var="k"),
                    node.lo_closed,
                    node.hi_closed,
                )
            )
        else:
            raise EngineError(f"unknown sigma schema key {key!r}")
    if mode is None or not schemas:
        raise EngineError("sigma schema needs a mode and at least one piece")
    return SigmaFamily(mode, schema=tuple(schemas), start=start), depth
