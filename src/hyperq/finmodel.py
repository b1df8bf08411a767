"""Exhaustive finite-model oracle for principal ultrapowers.

Over a finite index set every ultrafilter is principal, generated by
its distinguished point w.  The quotient of all functions index ->
carrier by agreement on an ultrafilter-large set is computed here the
long way (through the ultrafilter, not through evaluation at w), so
that the classical facts -- the quotient classes coincide with values
at w, and first-order truth in the quotient matches largeness of the
pointwise truth set -- can be checked by brute-force enumeration.

One Los check of a formula at two parameter functions passes when three
things agree: truth in the quotient at their classes, largeness of the
pointwise truth set in the ultrafilter, and w lying in that set.
``los_sweep`` runs it on every small relation and index, and model
files (``model_sweep``) run the same check after ``check_at_w``.

The checks are bit-sliced.  On one carrier, every base relation is a
*lane*: one bit of a Python int, the bit numbered by the relation's
bitmask over the carrier's pairs.  A truth value over all relations at
once is then a lane mask, and one walk of a formula per assignment
gives its truth in every lane.  Quotient membership, too, is decided
for all lanes at once: the lanes are split by their pointwise truth
set, and each set that occurs is looked up in the ultrafilter.  Each
check is still one relation's three-way comparison; only the
bookkeeping is shared.  ``model_sweep`` runs the same check with a
single lane.  ``evaluate`` is the one-lane case of the same truth walk,
and ``los_check`` remains the one-relation reference: it decides classes
through ``class_of`` and largeness through the ultrafilter's members.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .errors import EngineError, read_fields, read_int

# Input caps.  A quotient enumerates carrier^index functions and decides
# the 2^index subsets of its index; a model's truth tables cost about
# carrier^3 per quantified formula; a sweep enumerates the 2^(c^2)
# relations on every carrier size c up to its own.  The formula pool is
# defined for depths 1 and 2 only.
MAX_FUNCTIONS = 2**12
MAX_MODEL_CARRIER = 32
MAX_SWEEP_CARRIER = 3
MAX_POOL_DEPTH = 2


@dataclass(frozen=True)
class FinIndex:
    elements: tuple
    w: object

    def __post_init__(self):
        if self.w not in self.elements:
            raise EngineError("the distinguished point must belong to the index set")
        if len(set(self.elements)) != len(self.elements):
            raise EngineError("index elements must be distinct")


@dataclass(frozen=True)
class PrincipalUltrafilter:
    index: FinIndex
    members: frozenset  # frozenset of frozensets

    def __contains__(self, subset) -> bool:
        return frozenset(subset) in self.members


def build_ultrafilter(index: FinIndex) -> PrincipalUltrafilter:
    """All supersets of {w}: a filter that decides every subset."""
    rest = [e for e in index.elements if e != index.w]
    members = set()
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            members.add(frozenset((index.w,) + extra))
    return PrincipalUltrafilter(index, frozenset(members))


@dataclass(frozen=True)
class Structure:
    """A finite base structure: carrier, a binary membership-like
    relation, and optional named unary relations."""

    carrier: tuple
    membership: frozenset  # pairs (a, b) read as "a in b"
    unary: tuple = ()  # ((name, frozenset), ...)

    def unary_rel(self, name):
        for n, r in self.unary:
            if n == name:
                return r
        raise EngineError(f"no unary relation named {name!r}")


# -- formulas ------------------------------------------------------------


@dataclass(frozen=True)
class In:
    left: str
    right: str


@dataclass(frozen=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True)
class Has:
    relation: str
    var: str


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Forall:
    var: str
    body: object


@dataclass(frozen=True)
class Exists:
    var: str
    body: object


def formula_depth(f) -> int:
    if isinstance(f, (In, Eq, Has)):
        return 1
    if isinstance(f, Not):
        return 1 + formula_depth(f.child)
    if isinstance(f, (And, Or)):
        return 1 + max(formula_depth(f.left), formula_depth(f.right))
    if isinstance(f, (Forall, Exists)):
        return 1 + formula_depth(f.body)
    raise EngineError(f"malformed formula: {f!r}")


def free_variables(f, bound=frozenset()):
    if isinstance(f, (In, Eq)):
        return {v for v in (f.left, f.right) if v not in bound}
    if isinstance(f, Has):
        return {f.var} - bound
    if isinstance(f, Not):
        return free_variables(f.child, bound)
    if isinstance(f, (And, Or)):
        return free_variables(f.left, bound) | free_variables(f.right, bound)
    if isinstance(f, (Forall, Exists)):
        return free_variables(f.body, bound | {f.var})
    raise EngineError(f"malformed formula: {f!r}")


class _Lanes:
    """Structures that share a carrier and unary relations (``shape``)
    and differ in membership: ``member[a, b]`` is the mask of the lanes
    (bits of ``full``) whose relation holds a in b.  A plain class, as a
    dataclass costs about a millisecond at import."""

    __slots__ = ("shape", "member", "full")

    def __init__(self, shape: Structure, member: dict, full: int):
        self.shape, self.member, self.full = shape, member, full


def _one_lane(s: Structure) -> _Lanes:
    """One structure as a single lane."""
    member = {(a, b): int((a, b) in s.membership) for a in s.carrier for b in s.carrier}
    return _Lanes(s, member, 1)


def _lane_truth(s: _Lanes, f, env) -> int:
    """The mask of lanes where the formula holds under the assignment
    ``env`` of carrier elements to variables: the one truth walk of the
    formula language, in every lane at once."""
    if isinstance(f, In):
        return s.member[env[f.left], env[f.right]]
    if isinstance(f, Eq):
        return s.full if env[f.left] == env[f.right] else 0
    if isinstance(f, Has):
        return s.full if env[f.var] in s.shape.unary_rel(f.relation) else 0
    if isinstance(f, Not):
        return s.full ^ _lane_truth(s, f.child, env)
    if isinstance(f, And):
        return _lane_truth(s, f.left, env) & _lane_truth(s, f.right, env)
    if isinstance(f, Or):
        return _lane_truth(s, f.left, env) | _lane_truth(s, f.right, env)
    if isinstance(f, Forall):
        out = s.full
        for e in s.shape.carrier:
            out &= _lane_truth(s, f.body, {**env, f.var: e})
        return out
    if isinstance(f, Exists):
        out = 0
        for e in s.shape.carrier:
            out |= _lane_truth(s, f.body, {**env, f.var: e})
        return out
    raise EngineError(f"malformed formula: {f!r}")


def evaluate(structure: Structure, f, env) -> bool:
    """Truth of a formula in a finite structure under an assignment
    ``env`` of carrier elements to variables: one lane of the walk."""
    return _lane_truth(_one_lane(structure), f, env) == 1


# -- the ultrapower quotient ----------------------------------------------


@dataclass(frozen=True)
class FinUltrapower:
    base: Structure
    index: FinIndex
    ultrafilter: PrincipalUltrafilter
    functions: tuple  # every map index -> carrier, as value tuples
    classes: tuple  # tuple of frozensets of functions
    class_of: dict = field(compare=False, repr=False)
    quotient: Structure = None  # classes as 0..n-1 with the induced relation

    def embed(self, x) -> int:
        """Class of the constant function with value x."""
        return self.class_of[tuple(x for _ in self.index.elements)]

    def representative(self, ci: int):
        return min(self.classes[ci])


def _member_codes(uf: PrincipalUltrafilter) -> frozenset:
    """The ultrafilter's members as bitmasks of index positions."""
    bit = {e: 1 << p for p, e in enumerate(uf.index.elements)}
    return frozenset(sum(map(bit.__getitem__, s)) for s in uf.members)


def _large_lanes(codes: frozenset, truth, full: int) -> int:
    """The lanes (bits of ``full``) whose pointwise truth set is large.
    ``truth[p]`` is the mask of lanes true at index position p; the lanes
    are split by the set of positions they are true at, and each set
    that occurs is looked up among the member ``codes``."""
    parts = [(0, full)]
    for p, t in enumerate(truth):
        if not t:
            continue
        bit, split = 1 << p, []
        for code, lanes in parts:
            on = lanes & t
            if on != lanes:
                split.append((code, lanes ^ on))
            if on:
                split.append((code | bit, on))
        parts = split
    large = 0
    for code, lanes in parts:
        if code in codes:
            large |= lanes
    return large


def _quotient_membership(codes: frozenset, reps, member, full: int) -> dict:
    """Quotient membership through the ultrafilter (its member
    ``codes``), in every lane at once: for each pair of class
    representatives, the mask of lanes in which the first is pointwise a
    member of the second on a large set.  ``member[a, b]`` is the mask
    of lanes whose relation holds a in b."""
    return {
        (ci, cj): _large_lanes(codes, [member[a, b] for a, b in zip(f, g)], full)
        for ci, f in enumerate(reps)
        for cj, g in enumerate(reps)
    }


def _check_size(carrier_size: int, index_size: int) -> None:
    count = 1
    for _ in range(index_size):
        count *= max(carrier_size, 2)
        if count > MAX_FUNCTIONS:
            raise EngineError(
                f"carrier size {carrier_size} and index size {index_size} exceed "
                f"the limit max(carrier, 2)^index <= {MAX_FUNCTIONS}"
            )


def ultrapower_quotient(base: Structure, index: FinIndex) -> FinUltrapower:
    """The full quotient of carrier^index by agreement on an
    ultrafilter-large set, with membership induced the same way.  The
    classes never depend on the membership relation."""
    if not base.carrier:
        raise EngineError("the carrier must be nonempty")
    _check_size(len(base.carrier), len(index.elements))
    uf = build_ultrafilter(index)
    codes = _member_codes(uf)
    bits = [1 << p for p in range(len(index.elements))]
    functions = tuple(itertools.product(base.carrier, repeat=len(index.elements)))

    firsts, classes, class_of = [], [], {}
    for fn in functions:
        for ci, first in enumerate(firsts):
            # the positions where fn and the class's first function agree
            if sum(itertools.compress(bits, map(operator.eq, fn, first))) in codes:
                break
        else:
            ci = len(firsts)
            firsts.append(fn)
            classes.append([])
        classes[ci].append(fn)
        class_of[fn] = ci

    memrel = _quotient_membership(codes, firsts, _one_lane(base).member, 1)
    unary = tuple(
        (name, frozenset(
            ci for ci, f in enumerate(firsts) if _large_lanes(codes, [int(x in rel) for x in f], 1)
        ))
        for name, rel in base.unary
    )
    quotient = Structure(
        tuple(range(len(firsts))), frozenset(pair for pair, lane in memrel.items() if lane), unary)
    classes = tuple(map(frozenset, classes))
    return FinUltrapower(base, index, uf, functions, classes, class_of, quotient)


def check_at_w(up: FinUltrapower):
    """Exhaustively compare =_U and in_U (via the ultrafilter) with
    plain evaluation at w; returns the list of disagreements, one record
    per failing pair of functions.  Two functions with the same class and
    the same value at w behave alike, so the functions are grouped by
    both and each pair of groups is decided once."""
    pos_w = up.index.elements.index(up.index.w)
    groups = {}
    for f in up.functions:
        groups.setdefault((up.class_of[f], f[pos_w]), []).append(f)
    bad = []
    for (cf, vf), fs in groups.items():
        for (cg, vg), gs in groups.items():
            kinds = []
            if (cf == cg) != (vf == vg):
                kinds.append("eq")
            if ((cf, cg) in up.quotient.membership) != ((vf, vg) in up.base.membership):
                kinds.append("in")
            bad += ((kind, f, g) for kind in kinds for f in fs for g in gs)
    return bad


# -- Los checking ----------------------------------------------------------


@dataclass(frozen=True)
class LosReport:
    quotient_truth: bool
    pointwise_truth_set: frozenset
    pointwise_large: bool
    agree: bool


def los_check(up: FinUltrapower, formula, params, max_depth: Optional[int] = None) -> LosReport:
    """Compare truth in the quotient against largeness of the pointwise
    truth set.  ``params`` maps free variable names to functions
    (value tuples over the index)."""
    if max_depth is not None and formula_depth(formula) > max_depth:
        raise EngineError(f"formula exceeds depth bound {max_depth}")
    missing = free_variables(formula) - set(params)
    if missing:
        raise EngineError(f"unassigned free variables: {sorted(missing)}")

    quo_env = {v: up.class_of[tuple(fn)] for v, fn in params.items()}
    quotient_truth = evaluate(up.quotient, formula, quo_env)

    base = _one_lane(up.base)
    truth_set = frozenset(
        i
        for p, i in enumerate(up.index.elements)
        if _lane_truth(base, formula, {v: fn[p] for v, fn in params.items()})
    )
    large = truth_set in up.ultrafilter.members
    return LosReport(quotient_truth, truth_set, large, quotient_truth == large)


# -- coding of subsets ------------------------------------------------------


@dataclass(frozen=True)
class PsiCode:
    functions: frozenset  # the code: every function whose class lies in X
    classes: frozenset  # the one-object-per-element picture


def psi_finite(up: FinUltrapower, class_ids) -> PsiCode:
    """The code of a set X of classes: the union of the classes in X."""
    xs = frozenset(class_ids)
    return PsiCode(frozenset().union(*(up.classes[i] for i in xs)), xs)


def psi_setop_check(up: FinUltrapower, xs, ys) -> dict:
    """Union/intersection/difference/empty preservation, by enumeration."""
    xs, ys = frozenset(xs), frozenset(ys)
    px, py = psi_finite(up, xs), psi_finite(up, ys)
    return {
        "union": psi_finite(up, xs | ys).functions == px.functions | py.functions,
        "intersection": psi_finite(up, xs & ys).functions
        == px.functions & py.functions,
        "difference": psi_finite(up, xs - ys).functions
        == px.functions - py.functions,
        "empty": psi_finite(up, frozenset()).functions == frozenset(),
        "monotone": (xs <= ys) == (px.functions <= py.functions),
    }


# -- exhaustive sweeps -------------------------------------------------------


def gen_formulas(max_depth: int = 2):
    """The bounded formula pool used by the sweeps: atoms over the free
    variables x, y and one quantified variable z, closed under a single
    negation, conjunction, disjunction or quantifier."""
    if not 1 <= max_depth <= MAX_POOL_DEPTH:
        raise EngineError(
            f"formula depth {max_depth} is outside the pool's depths 1 to {MAX_POOL_DEPTH}")
    atoms = [In("x", "x"), In("x", "y"), In("y", "x"), In("y", "y"), Eq("x", "y"), Eq("x", "x")]
    out = list(atoms)
    if max_depth == 1:
        return out
    out.extend(Not(a) for a in atoms)
    for i, a in enumerate(atoms):
        for b in atoms[i + 1 :]:
            out.append(And(a, b))
            out.append(Or(a, b))
    z_atoms = [In("z", "z"), In("x", "z"), In("z", "x"), Eq("x", "z")]
    for a in z_atoms:
        out.append(Forall("z", a))
        out.append(Exists("z", a))
    return out


def _param_functions(c: int, m: int, w_pos: int):
    """For every carrier value: its constant function and one varied
    function that still takes that value at w."""
    out = []
    for v in range(c):
        constant = tuple(v for _ in range(m))
        varied = tuple(v if p == w_pos else (v + 1 + p) % c for p in range(m))
        out.append(constant)
        if varied != constant:
            out.append(varied)
    return out


@dataclass
class SweepReport:
    instances: int = 0
    checks: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _los_lanes(up: FinUltrapower, base: _Lanes, formulas, report: SweepReport,
               structure_of) -> None:
    """The Los check in every lane, for every formula of the pool and
    every pair of structured parameter functions: quotient truth,
    largeness of the pointwise truth set and truth at w must agree.
    ``up`` gives the classes and the ultrafilter, ``base`` the lanes'
    relations, and ``structure_of(lane)`` the base structure that a
    mismatch names.  The quotient's lanes are decided here, from one
    representative per class."""
    elements, full = up.index.elements, base.full
    m, lanes = len(elements), base.full.bit_length()
    w_pos = elements.index(up.index.w)
    codes = _member_codes(up.ultrafilter)
    reps = [up.representative(ci) for ci in range(len(up.classes))]
    quotient = _Lanes(up.quotient, _quotient_membership(codes, reps, base.member, full), full)
    params = []  # (function, class id)
    for f in _param_functions(len(base.shape.carrier), m, w_pos):
        fn = tuple(base.shape.carrier[v] for v in f)
        params.append((fn, up.class_of[fn]))
    # (f, g, the base assignment at each index position, the classes)
    pairs = [(fn, gn, tuple(zip(fn, gn)), (cf, cg)) for fn, cf in params for gn, cg in params]
    base_envs = {ab for _, _, envs, _ in pairs for ab in envs}
    quotient_envs = {cfg for _, _, _, cfg in pairs}
    report.instances += lanes
    for formula in formulas:
        bt = {(a, b): _lane_truth(base, formula, {"x": a, "y": b}) for a, b in base_envs}
        qt = {(a, b): _lane_truth(quotient, formula, {"x": a, "y": b}) for a, b in quotient_envs}
        large_of = {}  # pointwise truth -> its large lanes
        report.checks += lanes * len(pairs)
        for fn, gn, envs, cfg in pairs:
            truth = tuple(map(bt.__getitem__, envs))
            large = large_of.get(truth)
            if large is None:
                large = large_of[truth] = _large_lanes(codes, truth, full)
            bad = (qt[cfg] ^ large) | (large ^ truth[w_pos])
            while bad:
                lane = (bad & -bad).bit_length() - 1
                bad &= bad - 1
                truth_set = frozenset(e for e, t in zip(elements, truth) if t >> lane & 1)
                report.mismatches.append(
                    (structure_of(lane), up.index, formula, fn, gn, truth_set))


def _check_sweep(max_index: int, max_carrier: int) -> None:
    for name, size in (("index", max_index), ("carrier", max_carrier)):
        if size < 1:
            raise EngineError(f"sweep {name} size {size} is below the limit of 1")
    if max_carrier > MAX_SWEEP_CARRIER:
        raise EngineError(
            f"sweep carrier size {max_carrier} exceeds the limit of {MAX_SWEEP_CARRIER}")
    _check_size(max_carrier, max_index)


def los_sweep(max_index: int = 3, max_carrier: int = 3, max_depth: int = 2) -> SweepReport:
    """Run the Los check over every base relation, index
    configuration, bounded formula and structured parameter choice.
    On each carrier the relations are the lanes: relation number
    ``bits`` holds the carrier's pair number i when bit i of ``bits``
    is set."""
    _check_sweep(max_index, max_carrier)
    formulas = gen_formulas(max_depth)
    report = SweepReport()
    for c in range(1, max_carrier + 1):
        shape = Structure(tuple(range(c)), frozenset())
        pairs = [(a, b) for a in shape.carrier for b in shape.carrier]
        count = 2 ** len(pairs)
        member = {
            pair: sum(1 << bits for bits in range(count) if bits >> i & 1)
            for i, pair in enumerate(pairs)
        }
        base = _Lanes(shape, member, (1 << count) - 1)

        def structure_of(bits):
            relation = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            return Structure(shape.carrier, relation)

        for m in range(1, max_index + 1):
            for w_pos in range(m):
                # the classes, from the quotient of any relation on the carrier
                up = ultrapower_quotient(shape, FinIndex(tuple(range(m)), w_pos))
                _los_lanes(up, base, formulas, report, structure_of)
    return report


def model_sweep(base: Structure, index: FinIndex, max_depth: int = 2) -> SweepReport:
    """Check one finite model: =_U and in_U against evaluation at w,
    then the Los check of ``los_sweep`` on its quotient, in one lane."""
    size = len(base.carrier)
    if size > MAX_MODEL_CARRIER:
        raise EngineError(f"model carrier size {size} exceeds the limit of {MAX_MODEL_CARRIER}")
    formulas = gen_formulas(max_depth)
    up = ultrapower_quotient(base, index)
    report = SweepReport(mismatches=list(check_at_w(up)))
    _los_lanes(up, _one_lane(base), formulas, report, lambda lane: base)
    return report


def psi_sweep(max_index: int = 3, max_carrier: int = 3) -> SweepReport:
    """Exhaust every pair of class subsets on every instance and check
    the set-algebra preservation identities.  A code is a union of
    classes, so the identities also check that the quotient's classes
    partition the functions: overlapping classes fail intersection and
    difference."""
    _check_sweep(max_index, max_carrier)
    report = SweepReport()
    for c in range(1, max_carrier + 1):
        base = Structure(tuple(range(c)), frozenset())
        for m in range(1, max_index + 1):
            for w_pos in range(m):
                up = ultrapower_quotient(base, FinIndex(tuple(range(m)), w_pos))
                report.instances += 1
                ids = range(len(up.classes))
                subsets = [
                    frozenset(s)
                    for r in range(len(up.classes) + 1)
                    for s in itertools.combinations(ids, r)
                ]
                for xs in subsets:
                    for ys in subsets:
                        result = psi_setop_check(up, xs, ys)
                        report.checks += 1
                        if not all(result.values()):
                            report.mismatches.append((c, m, w_pos, xs, ys, result))
    return report


# -- plain-text model files ---------------------------------------------------


_MODEL_KEYS = ("carrier", "member", "unary", "index", "w")
_MODEL_ONCE = ("carrier", "index", "w")


def parse_model(text: str):
    """Model description: one ``carrier:`` line of atoms, ``member: a b``
    pairs (read "a in b"), optional ``unary: name atoms...``, one
    ``index: K`` and one ``w: i`` line.  ``member:`` and ``unary:``
    lines may repeat; every atom they name must be in the carrier."""
    carrier = None
    members = []  # file order, for the message
    unary = {}
    index_size = None
    w = None
    for key, value in read_fields(text, "model", _MODEL_KEYS, _MODEL_ONCE):
        parts = value.split()
        if key == "carrier":
            repeated = [a for a, n in Counter(parts).items() if n > 1]
            if repeated:
                raise EngineError(f"carrier atom {repeated[0]!r} is repeated")
            carrier = tuple(parts)
        elif key == "member":
            if len(parts) != 2:
                raise EngineError("member lines take exactly two atoms")
            members.append((parts[0], parts[1]))
        elif key == "unary":
            if len(parts) < 1:
                raise EngineError("unary lines need a relation name")
            unary.setdefault(parts[0], []).extend(parts[1:])  # file order, for the message
        elif len(parts) != 1:
            raise EngineError(f"model key {key!r} needs exactly one value")
        elif key == "w":
            w = parts[0]
        else:
            index_size = read_int(parts[0], "model key 'index'")
    if carrier is None or index_size is None or w is None:
        raise EngineError("model files need carrier, index and w lines")
    _check_size(len(carrier), index_size)
    for a, b in members:
        if a not in carrier or b not in carrier:
            raise EngineError(f"membership pair ({a}, {b}) leaves the carrier")
    for name, atoms in unary.items():
        for a in atoms:
            if a not in carrier:
                raise EngineError(f"unary atom {a!r} of {name!r} leaves the carrier")
    structure = Structure(
        carrier,
        frozenset(members),
        tuple((n, frozenset(v)) for n, v in sorted(unary.items())),
    )
    elements = tuple(str(i) for i in range(index_size))
    if w not in elements:
        raise EngineError("w must name an index position below the index size")
    return structure, FinIndex(elements, w)
