"""The hyperfinite time line, its Loeb and Lebesgue measures, and the cut
algebra its internal sets share with coded sets.

The time line is the grid {i/w : 0 <= i <= w}; the Loeb value does not
depend on which unlimited size the grid has, so there is one.  An
internal set is a union of germ-endpoint intervals inside [0,1],
intersected with the grid, and it is stored as its normal form alone: a
sorted list of cuts, two per piece.  A cut (g, side) lies
just below g (side 0) or just above it (side 1), so a closed lower end
or an open upper end at g is the cut (g, 0), and an open lower end or a
closed upper end is (g, 1).  Coded sets also cut below or above a whole
external number c + N; germ cuts are the case N = 0.  A list is normal
when its cuts strictly increase.  Union, intersection and difference
are one merge of two cut lists that emits a cut wherever the boolean
combination of the two memberships changes, so their results are normal
by construction; only the constructor sorts and merges arbitrary pieces.
The complement of a normal list inside a universe needs no merge: it is
the list with the universe's two cuts put at its ends, where a cut the
two share cancels.

The counting measure of an internal set is carried as a pair of exact
germ bounds that differ by an infinitesimal; its shadow is the Loeb
value, and on rational-endpoint sets the Loeb value is the Lebesgue
measure.  The width it rests on is summed per denominator: the
numerators of the upper cuts' germs, less those of the lower cuts', are
added as integers, and only one germ per distinct denominator is built.

Sigma-additivity is exercised through families with certificates:
exact partial values plus an exact limit, each a theorem.  A schema
family's endpoints are germs in the family index k; its mode is proved
for every k, not sampled, and a monotone one has as its limit the Loeb
measure of the set its pieces make as germs in k: ordering germs is
eventual order, so that set's normal form is the shape of every member
for all large k.  A self-similar family, such as the stock Cantor and
dyadic ones, maps each member to the next by affine maps of [0,1] whose
images meet in at most a point, so every step scales the measure by the
sum of their |slopes|: its values and limit are closed forms.  The limit
of a disjoint schema is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, combinations
from typing import Optional

from . import exprlang as E
from . import germ as G
from .errors import (
    EngineError,
    LimitUndecidableError,
    ModeViolationError,
    NotDisjointError,
    OutOfAlgebraError,
    read_fields,
    read_int,
)
from .extnum import ZERO_N, ExternalNumber, extnum_order
from .germ import Germ
from .hull import check_depth_bound

_ZERO = Germ.constant(0)
_ONE = Germ.constant(1)


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


def _spans(cuts):
    """The (lower, upper) cut pairs of a normal cut list."""
    return zip(cuts[::2], cuts[1::2])


@dataclass(frozen=True)
class Piece:
    lo: Germ
    hi: Germ
    lo_closed: bool = True
    hi_closed: bool = True

    def is_empty(self) -> bool:
        return _order(*_cuts((self,))) >= 0

    def at(self, k: int) -> "Piece":
        """The member at index k of a piece whose endpoints are germs in
        k: a constant endpoint is kept, and each other one is evaluated
        once."""
        lo, hi = (g if g.is_constant() else Germ.constant(g.evaluate(k)) for g in (self.lo, self.hi))
        return Piece(lo, hi, self.lo_closed, self.hi_closed)


def _stray_end(p: Piece) -> Optional[Germ]:
    """An endpoint of p below 0 or above 1, if there is one."""
    if G.compare(p.lo, _ZERO) < 0:
        return p.lo
    return p.hi if G.compare(p.hi, _ONE) > 0 else None


def _sweep(a, b, keep) -> list:
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


_KEEP = {"union": lambda a, b: a or b, "intersection": lambda a, b: a and b,
         "difference": lambda a, b: a and not b}


def _complement_in(universe, cuts) -> tuple:
    """The normal cut list of U minus X, for the two cuts of a universe U
    and a normal list X that lies inside U.  Membership flips at every
    cut of U and of X, so U minus X is u0 + X + u1; a cut X shares with U
    passes twice and cancels, and only X's ends can share one."""
    lo, hi = universe
    out = [lo, *cuts, hi]
    if cuts and _order(cuts[-1], hi) == 0:
        del out[-2:]
    if cuts and _order(lo, cuts[0]) == 0:
        del out[:2]
    return tuple(out)


def _from_cuts(cuts) -> "InternalSet":
    """An InternalSet on a cut list that is already normal."""
    x = object.__new__(InternalSet)
    x.cuts = tuple(cuts)
    return x


_UNIT = ((_ZERO, 0), (_ONE, 1))  # the cuts of [0,1]
_SPAN_KEY = cmp_to_key(lambda s, t: _order(s[0], t[0]))


class InternalSet:
    """A disjoint union of germ-endpoint intervals in [0,1], stored as
    its normal cut list ``cuts``: strictly increasing, two cuts per
    piece.  The constructor validates, sorts and merges arbitrary
    pieces; set-algebra results leave the cut sweep normal.
    """

    __slots__ = ("cuts",)

    def __init__(self, pieces):
        spans = []
        for p in pieces:
            if p.is_empty():
                continue
            if _stray_end(p) is not None:
                raise EngineError(f"piece {_from_cuts(_cuts((p,)))} leaves [0,1]")
            spans.append(_cuts((p,)))
        spans.sort(key=_SPAN_KEY)
        cuts = []
        for lo, hi in spans:
            if not cuts or _order(lo, cuts[-1]) > 0:
                cuts += (lo, hi)
            elif _order(hi, cuts[-1]) > 0:
                cuts[-1] = hi
        self.cuts = tuple(cuts)

    @property
    def pieces(self) -> tuple:
        """The normal pieces, one per pair of cuts."""
        return tuple(Piece(lo[0], hi[0], lo[1] == 0, hi[1] == 1) for lo, hi in _spans(self.cuts))

    def __eq__(self, other):
        if not isinstance(other, InternalSet):
            return NotImplemented
        return self.cuts == other.cuts

    def __hash__(self):
        return hash(self.cuts)

    def __str__(self):
        parts = (f"{'[('[s]}{a},{b}{')]'[t]}" for (a, s), (b, t) in _spans(self.cuts))
        return " | ".join(parts) or "(empty)"

    def is_empty(self) -> bool:
        return not self.cuts

    # -- set algebra: one sweep over the cuts of both operands ---------

    def _combine(self, other: "InternalSet", op: str) -> "InternalSet":
        return _from_cuts(_sweep(self.cuts, other.cuts, _KEEP[op]))

    def union(self, other: "InternalSet") -> "InternalSet":
        return self._combine(other, "union")

    def intersect(self, other: "InternalSet") -> "InternalSet":
        return self._combine(other, "intersection")

    def difference(self, other: "InternalSet") -> "InternalSet":
        return self._combine(other, "difference")

    def complement(self) -> "InternalSet":
        """The complement within [0,1]; the set lies inside [0,1], as
        every InternalSet does, which ``_complement_in`` needs."""
        return _from_cuts(_complement_in(_UNIT, self.cuts))

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
    """Exact germ bounds on |X|/|T| for the time line T of size w + 1
    whose shadows agree, plus that common shadow, the shadow of the
    summed width, as the Loeb value."""
    n = G.OMEGA
    width = _width(x.cuts)
    slack = Germ.constant(len(x.cuts) // 2)
    lower = (width * n - slack) / (n + 1)
    upper = (width * n + slack) / (n + 1)
    return MeasureValue(_clamp(G.shadow(width)), lower, upper)


def _width(cuts) -> Germ:
    """The summed width, upper germs less lower germs, of a normal cut
    list.  Numerators are added as integer coefficients, one running sum
    per distinct denominator, so that no germ is built for a single cut;
    each sum becomes one germ, and those are added pairwise in a
    balanced tree: left to right, the running denominator would grow
    towards the lcm of all of them, with a gcd on it at every add."""
    sums, sign = {}, -1
    for g, _ in cuts:  # lower and upper cuts alternate
        acc = sums.get(g.den)
        if acc is None:
            acc = sums[g.den] = []
        if len(acc) < len(g.num):
            acc += [0] * (len(g.num) - len(acc))
        for j, c in enumerate(g.num):
            acc[j] += sign * c
        sign = -sign
    germs = [Germ(tuple(num), den) for den, num in sums.items()] or [_ZERO]
    while len(germs) > 1:
        odd = germs[-1:] if len(germs) % 2 else []
        germs = [a + b for a, b in zip(germs[::2], germs[1::2])] + odd
    return germs[0]


def loeb_measure(x: InternalSet) -> Fraction:
    """Sum of shadow widths of the normalized pieces, clamped to [0,1]."""
    shadows = (G.shadow(hi[0]) - G.shadow(lo[0]) for lo, hi in _spans(x.cuts))
    return _clamp(sum(shadows, Fraction(0)))


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


def internal_set_from_ast(node) -> InternalSet:
    return E.fold(node, lambda leaf: InternalSet([piece_of(leaf)]), E.SET_OPS)


def parse_internal_set(text: str) -> InternalSet:
    return internal_set_from_ast(E.parse(text, "set"))


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


def _map_piece(p: Piece, a: Fraction, b: Fraction) -> Piece:
    """The image of p under x -> a*x + b; a constant map sends it to {b}."""
    lo, hi = p.lo * a + b, p.hi * a + b
    if a < 0:
        return Piece(hi, lo, p.hi_closed, p.lo_closed)
    return Piece(lo, hi, p.lo_closed or a == 0, p.hi_closed or a == 0)


def _image(maps, x: InternalSet) -> InternalSet:
    """The union of the images of x under the affine maps."""
    return InternalSet([_map_piece(p, a, b) for a, b in maps for p in x.pieces])


@dataclass(frozen=True)
class SigmaFamily:
    """A monotone or disjoint family of internal sets indexed by k >= start:
    pieces with endpoints in k or, given affine maps (a, b) meaning
    x -> a*x + b, the pieces of the member at start, each later member
    being the union of the maps' images of the one before."""

    mode: str  # "increasing" | "decreasing" | "disjoint"
    schema: tuple  # Pieces whose endpoints are germs in k
    maps: tuple = ()  # ((a, b), ...) with Fraction entries
    start: int = 1

    def __post_init__(self):
        if self.mode not in ("increasing", "decreasing", "disjoint"):
            raise ValueError(f"unknown sigma mode {self.mode!r}")

    def at(self, k: int) -> InternalSet:
        if not self.maps:
            return InternalSet([s.at(k) for s in self.schema])
        x = InternalSet(self.schema)
        for _ in range(k - self.start):
            x = _image(self.maps, x)
        return x


@dataclass(frozen=True)
class SigmaCertificate:
    mode: str
    values: tuple  # ((k, Fraction), ...): measures, or partial sums when disjoint
    limit: Fraction
    materialized_to: int
    derivation: str


def _prove_mode(family: SigmaFamily):
    """Prove a schema's mode for every k >= start, or raise
    ModeViolationError naming the piece, end and first k that fail.  A
    union of growing pieces grows, so an increasing schema holds when no
    lower end rises and no upper end falls, for any number of pieces
    (pieces that trade ground are refused); decreasing is the mirror.
    The disjoint mode is proved for one piece: a lower end that never
    rises and hi(k+1) <= lo(k), strict unless an end is open, give
    hi(j) <= lo(j-1) <= lo(i) for i < j; or the mirror, moving up."""
    mode, start, schema = family.mode, family.start, family.schema
    fail = f"{mode} mode not proved: "
    if mode == "disjoint" and len(schema) > 1:
        raise ModeViolationError(fail + f"it is proved for one piece, not {len(schema)}")
    sign = -1 if mode == "decreasing" else 1  # the way an upper end may move
    for n, p in enumerate(schema, 1):
        ends = (("lower", p.lo, -sign), ("upper", p.hi, sign))
        if mode == "disjoint":  # the members move down, or else up
            down = G.compare(G.shift(p.lo), p.lo) <= 0
            ends = ends[:1] if down else ends[1:]
        for end, g, s in ends:
            k = G.first_against(g, start, s)
            if k is not None:
                moves = "rises" if s < 0 else "falls"
                raise ModeViolationError(fail + f"the {end} end of piece {n} {moves} at k={k}")
        if mode == "disjoint":  # the next member lies wholly below, or above
            g, base, s = (p.hi, p.lo, -1) if down else (p.lo, p.hi, 1)
            k = G.first_against(g, start, s, base, p.lo_closed and p.hi_closed)
            if k is not None:
                raise ModeViolationError(fail + f"the member of piece {n} at k={k + 1} is not "
                                         f"{'below' if down else 'above'} the one at k={k}")


def _eventual_set(family: SigmaFamily) -> InternalSet:
    """The schema's pieces as one set of germs in k.  The constructor
    sorts and merges them in eventual order, so its normal form is the
    shape every member takes for all large k."""
    for p in family.schema:
        end = None if p.is_empty() else _stray_end(p)
        if end is not None:
            end = E.format(E.germ_to_ast(end, "k"))
            raise EngineError(f"piece endpoint {end} eventually leaves [0,1]")
    return InternalSet(family.schema)


def _self_similar(family: SigmaFamily, depth: int) -> SigmaCertificate:
    """The certificate of a family A(k+1) = F(A(k)), F the union of the
    affine maps f_i.  When every f_i([0,1]) lies in [0,1] and the images
    meet pairwise in at most a point (the open set condition with
    V = (0,1)), m(F(A)) = rho*m(A) with rho the sum of the |a_i|, for
    every A inside [0,1].  F is monotone under inclusion, so a mode that
    holds between A0 and A1 = F(A0) holds between every A(k) and
    A(k+1); a single injective f with A0 outside f([0,1]) keeps each
    f^j(A0) outside f^(j+1)([0,1]), which holds all later members."""
    start, mode, maps = family.start, family.mode, family.maps
    units = [sorted((b, a + b)) for a, b in maps]
    for (a, b), (lo, hi) in zip(maps, units):
        if lo < 0 or hi > 1:
            raise EngineError(f"map x -> {a}*x + {b} sends [0,1] outside itself")
    if any(min(hi, hi2) > max(lo, lo2) for (lo, hi), (lo2, hi2) in combinations(units, 2)):
        raise LimitUndecidableError("the maps' images of [0,1] overlap in more than a point")
    a0 = InternalSet(family.schema)
    a1 = _image(maps, a0)
    if mode == "increasing":
        holds = a0.subset_of(a1)
    elif mode == "decreasing":
        holds = a1.subset_of(a0)
    else:
        image = _image(maps, _from_cuts(_UNIT))
        holds = len(maps) == 1 and maps[0][0] != 0 and a0.is_disjoint_from(image)
    if not holds:
        raise ModeViolationError(f"set at k={start + 1} breaks the {mode} mode")
    m0, rho = loeb_measure(a0), sum(abs(a) for a, _ in maps)
    values = [m0 * rho ** i for i in range(depth + 1)]
    if mode == "disjoint":
        values = list(accumulate(values))
        # rho = 1 makes f([0,1]) all of [0,1], which leaves A0 empty
        limit = m0 / (1 - rho) if rho < 1 else m0
    else:
        limit = m0 if rho == 1 else Fraction(0)
    pairs = tuple((start + i, v) for i, v in enumerate(values))
    return SigmaCertificate(mode, pairs, limit, start + 1,
                            f"self-similarity with measure ratio {rho}")


def sigma_limit(family: SigmaFamily, depth: int) -> SigmaCertificate:
    """Exact partial values and the exact limit of a sigma family.

    Monotone modes report the member measures; the disjoint mode
    reports partial sums.  A family of maps gets its values and limit
    from its self-similarity (``_self_similar``).  A schema family
    builds its members up to the depth for the values, and its mode is
    proved for every k >= start (``_prove_mode``).  A monotone schema's
    limit is the Loeb measure of its eventual set: for all large k the
    members take that set's shape, so their measures tend to the shadows
    of its widths.  A schema piece that eventually leaves [0,1] is
    refused, and so is the limit of a disjoint schema, which needs its
    partial sums in closed form.
    """
    check_depth_bound(depth)
    if family.maps:
        return _self_similar(family, depth)
    start = family.start
    eventual = _eventual_set(family)
    sets = [family.at(k) for k in range(start, start + depth + 1)]
    _prove_mode(family)
    if family.mode == "disjoint":
        raise LimitUndecidableError("no exact closed form found for the value sequence")
    pairs = tuple((start + i, loeb_measure(s)) for i, s in enumerate(sets))
    return SigmaCertificate(family.mode, pairs, loeb_measure(eventual), start + depth,
                            "shadow of the symbolic width in the family index")


# -- stock families --------------------------------------------------------


def dyadic_family() -> SigmaFamily:
    """The disjoint family (2^-(k+1), 2^-k] for k >= 0, the images of
    (1/2, 1] under x -> x/2; partial sums 1 - 2^-(k+1) with limit 1."""
    half = Fraction(1, 2)
    base = Piece(Germ.constant(half), _ONE, False)
    return SigmaFamily("disjoint", (base,), ((half, Fraction(0)),), start=0)


def cantor_family() -> SigmaFamily:
    """Middle-thirds construction as a decreasing family: [0,1] under
    x -> x/3 and x -> x/3 + 2/3, so step k keeps 2^k closed pieces of
    total measure (2/3)^k."""
    third = Fraction(1, 3)
    maps = ((third, Fraction(0)), (third, 2 * third))
    return SigmaFamily("decreasing", (Piece(_ZERO, _ONE),), maps, start=0)


def interval_family(
    lo_expr: str,
    hi_expr: str,
    mode: str,
    lo_closed: bool = True,
    hi_closed: bool = True,
    start: int = 1,
) -> SigmaFamily:
    """A single-interval symbolic family with endpoints in k."""
    schema = (
        Piece(G.parse_germ_in_k(lo_expr), G.parse_germ_in_k(hi_expr), lo_closed, hi_closed),
    )
    return SigmaFamily(mode, schema=schema, start=start)


_SIGMA_KEYS = ("mode", "start", "depth", "piece")
_SIGMA_ONCE = ("mode", "start", "depth")


def parse_sigma_file(text: str):
    """Plain-text sigma schema: ``mode:``, optional ``start:`` and
    ``depth:``, and one ``piece: [lo, hi]`` line per interval (the one
    key that may repeat), with endpoints rational in k."""
    mode = None
    start = 1
    depth = None
    schemas = []
    for key, value in read_fields(text, "sigma schema", _SIGMA_KEYS, _SIGMA_ONCE):
        if key == "mode":
            if value not in ("increasing", "decreasing", "disjoint"):
                raise EngineError(f"unknown mode {value!r}")
            mode = value
        elif key == "start":
            start = read_int(value, "sigma key 'start'")
        elif key == "depth":
            depth = read_int(value, "sigma key 'depth'")
        else:
            node = E.parse(value, "kset")
            if not isinstance(node, E.Interval):
                raise EngineError("piece lines must be single intervals")
            schemas.append(piece_of(node, "k"))
    if mode is None or not schemas:
        raise EngineError("sigma schema needs a mode and at least one piece")
    return SigmaFamily(mode, schema=tuple(schemas), start=start), depth
