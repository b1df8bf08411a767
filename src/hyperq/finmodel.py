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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .errors import EngineError

# Input caps.  A quotient enumerates carrier^index functions and decides
# the 2^index subsets of its index; a model's truth tables cost about
# carrier^3 per quantified formula; a sweep enumerates the 2^(c^2)
# relations on every carrier size c up to its own.
MAX_FUNCTIONS = 2**12
MAX_MODEL_CARRIER = 32
MAX_SWEEP_CARRIER = 3


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


def evaluate(structure: Structure, f, env) -> bool:
    """Truth of a formula in a finite structure under an assignment."""
    if isinstance(f, In):
        return (env[f.left], env[f.right]) in structure.membership
    if isinstance(f, Eq):
        return env[f.left] == env[f.right]
    if isinstance(f, Has):
        return env[f.var] in structure.unary_rel(f.relation)
    if isinstance(f, Not):
        return not evaluate(structure, f.child, env)
    if isinstance(f, And):
        return evaluate(structure, f.left, env) and evaluate(structure, f.right, env)
    if isinstance(f, Or):
        return evaluate(structure, f.left, env) or evaluate(structure, f.right, env)
    if isinstance(f, Forall):
        return all(
            evaluate(structure, f.body, {**env, f.var: e}) for e in structure.carrier
        )
    if isinstance(f, Exists):
        return any(
            evaluate(structure, f.body, {**env, f.var: e}) for e in structure.carrier
        )
    raise EngineError(f"malformed formula: {f!r}")


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


def _large(uf: PrincipalUltrafilter, index: FinIndex, pred) -> bool:
    subset = frozenset(i for i in index.elements if pred(i))
    return subset in uf.members


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
    ultrafilter-large set, with membership induced the same way."""
    if not base.carrier:
        raise EngineError("the carrier must be nonempty")
    _check_size(len(base.carrier), len(index.elements))
    uf = build_ultrafilter(index)
    positions = {e: p for p, e in enumerate(index.elements)}
    functions = tuple(itertools.product(base.carrier, repeat=len(index.elements)))

    classes = []
    class_of = {}
    for fn in functions:
        for ci, members in enumerate(classes):
            rep = next(iter(members))
            if _large(uf, index, lambda i: fn[positions[i]] == rep[positions[i]]):
                members.add(fn)
                class_of[fn] = ci
                break
        else:
            class_of[fn] = len(classes)
            classes.append({fn})

    reps = [min(members) for members in classes]
    memrel = set()
    for ci, f in enumerate(reps):
        for cj, g in enumerate(reps):
            if _large(
                uf, index, lambda i: (f[positions[i]], g[positions[i]]) in base.membership
            ):
                memrel.add((ci, cj))
    unary = tuple(
        (name, frozenset(
            ci for ci, f in enumerate(reps) if _large(uf, index, lambda i: f[positions[i]] in rel)
        ))
        for name, rel in base.unary
    )
    quotient = Structure(tuple(range(len(classes))), frozenset(memrel), unary)
    classes = tuple(frozenset(m) for m in classes)
    return FinUltrapower(base, index, uf, functions, classes, class_of, quotient)


def check_at_w(up: FinUltrapower):
    """Exhaustively compare =_U and in_U (via the ultrafilter) with
    plain evaluation at w; returns the list of disagreements."""
    pos_w = up.index.elements.index(up.index.w)
    bad = []
    for f in up.functions:
        for g in up.functions:
            same = up.class_of[f] == up.class_of[g]
            if same != (f[pos_w] == g[pos_w]):
                bad.append(("eq", f, g))
            member = (up.class_of[f], up.class_of[g]) in up.quotient.membership
            if member != ((f[pos_w], g[pos_w]) in up.base.membership):
                bad.append(("in", f, g))
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

    positions = {e: p for p, e in enumerate(up.index.elements)}
    truth_set = frozenset(
        i
        for i in up.index.elements
        if evaluate(
            up.base, formula, {v: fn[positions[i]] for v, fn in params.items()}
        )
    )
    large = truth_set in up.ultrafilter.members
    return LosReport(quotient_truth, truth_set, large, quotient_truth == large)


# -- coding of subsets ------------------------------------------------------


@dataclass(frozen=True)
class PsiCode:
    functions: frozenset  # the code: every function whose class lies in X
    classes: frozenset  # the one-object-per-element picture


def psi_finite(up: FinUltrapower, class_ids) -> PsiCode:
    xs = frozenset(class_ids)
    fns = frozenset(fn for fn in up.functions if up.class_of[fn] in xs)
    return PsiCode(fns, xs)


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
    atoms = [In("x", "x"), In("x", "y"), In("y", "x"), In("y", "y"), Eq("x", "y"), Eq("x", "x")]
    out = list(atoms)
    if max_depth <= 1:
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


def _truth_table(structure: Structure, formula, cache):
    """Truth of the formula for every (x, y) assignment, as a flat tuple
    indexed by p*size + q for x and y at carrier positions p and q."""
    key = (id(formula), structure.carrier, structure.membership)
    if key not in cache:
        carrier = structure.carrier
        env = ({"x": x, "y": y} for x in carrier for y in carrier)
        cache[key] = tuple(evaluate(structure, formula, e) for e in env)
    return cache[key]


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


def _los_instance(up: FinUltrapower, formulas, cache, report: SweepReport) -> None:
    """The Los check on one quotient for every formula of the pool and
    every pair of structured parameter functions: quotient truth,
    largeness of the pointwise truth set and truth at w must agree."""
    base, elements = up.base, up.index.elements
    c, m, qc = len(base.carrier), len(elements), len(up.quotient.carrier)
    w_pos = elements.index(up.index.w)
    large = {tuple(sorted(map(elements.index, s))) for s in up.ultrafilter.members}
    params = []  # (carrier positions, function, class id)
    for f in _param_functions(c, m, w_pos):
        fn = tuple(base.carrier[v] for v in f)
        params.append((f, fn, up.class_of[fn]))
    report.instances += 1
    for formula in formulas:
        bt = _truth_table(base, formula, cache)
        qt = _truth_table(up.quotient, formula, cache)
        for f, fn, cf in params:
            for g, gn, cg in params:
                quotient_truth = qt[cf * qc + cg]
                truth = tuple(i for i in range(m) if bt[f[i] * c + g[i]])
                report.checks += 1
                if not quotient_truth == (truth in large) == (w_pos in truth):
                    truth_set = frozenset(elements[i] for i in truth)
                    report.mismatches.append((base, up.index, formula, fn, gn, truth_set))


def _check_sweep(max_index: int, max_carrier: int) -> None:
    if max_carrier > MAX_SWEEP_CARRIER:
        raise EngineError(
            f"sweep carrier size {max_carrier} exceeds the limit of {MAX_SWEEP_CARRIER}")
    _check_size(max_carrier, max_index)


def los_sweep(max_index: int = 3, max_carrier: int = 3, max_depth: int = 2) -> SweepReport:
    """Run the Los check over every base relation, index
    configuration, bounded formula and structured parameter choice."""
    _check_sweep(max_index, max_carrier)
    report = SweepReport()
    formulas = gen_formulas(max_depth)
    cache = {}
    for c in range(1, max_carrier + 1):
        carrier = tuple(range(c))
        pairs = [(a, b) for a in carrier for b in carrier]
        for bits in range(2 ** len(pairs)):
            base = Structure(carrier, frozenset(p for i, p in enumerate(pairs) if bits >> i & 1))
            for m in range(1, max_index + 1):
                for w_pos in range(m):
                    up = ultrapower_quotient(base, FinIndex(tuple(range(m)), w_pos))
                    _los_instance(up, formulas, cache, report)
    return report


def model_sweep(base: Structure, index: FinIndex, max_depth: int = 2) -> SweepReport:
    """Check one finite model: =_U and in_U against evaluation at w,
    then the Los check of ``los_sweep`` on its quotient."""
    size = len(base.carrier)
    if size > MAX_MODEL_CARRIER:
        raise EngineError(f"model carrier size {size} exceeds the limit of {MAX_MODEL_CARRIER}")
    up = ultrapower_quotient(base, index)
    report = SweepReport(mismatches=list(check_at_w(up)))
    _los_instance(up, gen_formulas(max_depth), {}, report)
    return report


def psi_sweep(max_index: int = 3, max_carrier: int = 3) -> SweepReport:
    """Exhaust every pair of class subsets on every instance and check
    the set-algebra preservation identities."""
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


def parse_model(text: str):
    """Model description: ``carrier:`` atoms, ``member: a b`` pairs
    (read "a in b"), optional ``unary: name atoms...``, ``index: K``
    and ``w: i``."""
    carrier = None
    members = set()
    unary = {}
    index_size = None
    w = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise EngineError(f"bad model line: {line!r}")
        key, _, value = line.partition(":")
        key, parts = key.strip(), value.split()
        if key == "carrier":
            carrier = tuple(parts)
        elif key == "member":
            if len(parts) != 2:
                raise EngineError("member lines take exactly two atoms")
            members.add((parts[0], parts[1]))
        elif key == "unary":
            if len(parts) < 1:
                raise EngineError("unary lines need a relation name")
            unary.setdefault(parts[0], set()).update(parts[1:])
        elif key == "index":
            index_size = int(parts[0])
        elif key == "w":
            w = parts[0]
        else:
            raise EngineError(f"unknown model key {key!r}")
    if carrier is None or index_size is None or w is None:
        raise EngineError("model files need carrier, index and w lines")
    _check_size(len(carrier), index_size)
    for a, b in members:
        if a not in carrier or b not in carrier:
            raise EngineError(f"membership pair ({a}, {b}) leaves the carrier")
    structure = Structure(
        carrier,
        frozenset(members),
        tuple((n, frozenset(v)) for n, v in sorted(unary.items())),
    )
    elements = tuple(str(i) for i in range(index_size))
    if w not in elements:
        raise EngineError("w must name an index position below the index size")
    return structure, FinIndex(elements, w)
