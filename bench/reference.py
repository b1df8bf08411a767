"""Reference answers computed without hyperq.

Rational functions are sympy ``Poly`` pairs over QQ; sets of reals are
plain ``Fraction`` intervals.  Printing follows the canonical form that
hyperq's README and CLI promise: numerator and denominator coprime,
denominator monic, terms in descending degree, minimal parentheses.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ, Poly, Rational, symbols

W, K, T = symbols("w k t")


def q(x) -> Fraction:
    """A sympy or Python rational as a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    r = Rational(x)
    return Fraction(int(r.p), int(r.q))


class RF:
    """A reduced rational function in one variable, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = Poly(1, den.gens, domain=QQ)
        else:
            g = num.gcd(den)
            num, den = num.exquo(g), den.exquo(g)
            num = num.quo_ground(den.LC())
            den = den.monic()
        self.num, self.den = num, den

    @staticmethod
    def const(c, var=W) -> "RF":
        return RF(Poly(Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c,
                       var, domain=QQ), Poly(1, var, domain=QQ))

    @staticmethod
    def var(var=W) -> "RF":
        return RF(Poly(var, var, domain=QQ), Poly(1, var, domain=QQ))

    @staticmethod
    def poly(coeffs_low_first, var=W) -> "RF":
        cs = [Rational(c.numerator, c.denominator) for c in reversed(coeffs_low_first)]
        return RF(Poly(cs or [0], var, domain=QQ), Poly(1, var, domain=QQ))

    def __add__(self, o):
        return RF(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o):
        return RF(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, o):
        return RF(self.num * o.num, self.den * o.den)

    def __truediv__(self, o):
        if o.num.is_zero:
            raise ZeroDivisionError("division by zero function")
        return RF(self.num * o.den, self.den * o.num)

    def __neg__(self):
        return RF(-self.num, self.den)

    def __pow__(self, n: int):
        if n < 0:
            return RF.const(Fraction(1), self.num.gens[0]) / (self ** -n)
        return RF(self.num ** n, self.den ** n)

    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_constant(self) -> bool:
        return self.num.degree() <= 0 and self.den.degree() == 0

    def valuation(self):
        return None if self.is_zero() else self.num.degree() - self.den.degree()

    def lead(self) -> Fraction:
        return q(self.num.LC()) / q(self.den.LC())

    def sign(self) -> int:
        """Eventual sign at +infinity."""
        if self.is_zero():
            return 0
        return 1 if self.lead() > 0 else -1

    def at(self, x) -> Fraction:
        return q(self.num.eval(Rational(x.numerator, x.denominator))) / q(
            self.den.eval(Rational(x.numerator, x.denominator)))

    def __str__(self):
        var = str(self.num.gens[0])
        num = _poly_terms(self.num)
        if self.den.degree() == 0:
            return _join(num, var)
        n, d = _join(num, var), _join(_poly_terms(self.den), var)
        if len(num) > 1:
            n = f"({n})"
        if len(_poly_terms(self.den)) > 1:
            d = f"({d})"
        return f"{n}/{d}"


def _poly_terms(p: Poly):
    return [(e, q(c)) for (e,), c in sorted(p.terms(), reverse=True) if c != 0]


def _term(c: Fraction, e: int, var: str) -> str:
    if e == 0:
        return str(c)
    base = var if e == 1 else f"{var}^{e}"
    if c == 1:
        return base
    if c == -1:
        return "-" + base
    return f"{c}*{base}"


def _join(terms, var: str) -> str:
    if not terms:
        return "0"
    e, c = terms[0]
    out = _term(c, e, var)
    for e, c in terms[1:]:
        out += f" + {_term(c, e, var)}" if c > 0 else f" - {_term(-c, e, var)}"
    return out


# -- germ facts ----------------------------------------------------------


def shadow(g: RF):
    """Fraction, or the strings '+inf' / '-inf'."""
    v = g.valuation()
    if v is None or v < 0:
        return Fraction(0)
    if v == 0:
        return g.lead()
    return "+inf" if g.lead() > 0 else "-inf"


def classify(g: RF) -> str:
    if g.is_zero():
        return "zero"
    if g.is_constant():
        return "standard-nonzero"
    v = g.valuation()
    if v < 0:
        return "infinitesimal-nonzero"
    if v == 0:
        return "appreciable-nonstandard"
    return "unlimited-positive" if g.lead() > 0 else "unlimited-negative"


def is_limited(g: RF) -> bool:
    v = g.valuation()
    return v is None or v <= 0


def laurent_truncation(g: RF, grade: int) -> RF:
    """The terms of g's expansion at infinity with exponent above grade."""
    if g.is_zero():
        return g
    v = g.valuation()
    n = v - grade
    if n <= 0:
        return RF.const(Fraction(0))
    rev_num = Poly(list(reversed(g.num.all_coeffs())), T, domain=QQ)
    rev_den = Poly(list(reversed(g.den.all_coeffs())), T, domain=QQ)
    mod = Poly(T ** n, T, domain=QQ)
    series = (rev_num * rev_den.invert(mod)).rem(mod)
    coeffs = {e: c for (e,), c in series.terms()}
    low = min(0, v - n + 1)
    top = v - low
    num = [coeffs.get(v - e - low, 0) if 0 <= v - e - low < n else 0 for e in range(top, -1, -1)]
    return RF(Poly(num, W, domain=QQ), Poly(W ** -low, W, domain=QQ))


def neutrix_label(grade: int) -> str:
    return {-1: "M0", 0: "G0"}.get(grade, f"N({grade})")


def no_root_from(p: Poly, start: int) -> bool:
    """True when p has no real root in [start, oo)."""
    if p.degree() <= 0:
        return not p.is_zero
    shifted = p.shift(start).all_coeffs()
    if shifted[-1] == 0:
        return False
    if len({c > 0 for c in shifted if c != 0}) == 1:
        return True  # Descartes: no sign change, no root at or past start
    return p.count_roots(inf=start) == 0


def monotone_direction(g: RF, start: int):
    """Direction of k -> g(k) on the integers >= start: -1, 0 or +1, or
    None when the steps change sign there (decided from the real roots
    of g(k+1) - g(k), with no sampling)."""
    from sympy import real_roots

    var = g.num.gens[0]
    shifted = RF(g.num.compose(Poly(var + 1, var, domain=QQ)),
                 g.den.compose(Poly(var + 1, var, domain=QQ)))
    step = shifted - g
    eventual = step.sign()
    if eventual == 0:
        return 0
    crit = [r for r in real_roots(step.num * step.den) if r >= start - 1]
    last = max((int(r.evalf(30)) + 2 for r in crit), default=start)
    for k in range(start, max(last, start) + 1):
        s = step.at(Fraction(k))
        if s != 0 and (s > 0) != (eventual > 0):
            return None
    return eventual


# -- sets of reals ---------------------------------------------------------


def normalize(contains, points):
    """Maximal intervals of {x in [0,1] : contains(x)}, given every
    endpoint where membership can change.  Returns a list of
    (lo, hi, lo_closed, hi_closed)."""
    pts = sorted({Fraction(0), Fraction(1), *(p for p in points if 0 <= p <= 1)})
    atoms = []  # (lo, hi, is_point, member)
    for i, p in enumerate(pts):
        atoms.append((p, p, True, contains(p)))
        if i + 1 < len(pts):
            nxt = pts[i + 1]
            atoms.append((p, nxt, False, contains((p + nxt) / 2)))
    pieces = []
    run = None
    for lo, hi, is_point, member in atoms:
        if member:
            if run is None:
                run = [lo, hi, is_point, is_point]
            else:
                run[1], run[3] = hi, is_point
        elif run is not None:
            pieces.append(tuple(run))
            run = None
    if run is not None:
        pieces.append(tuple(run))
    return pieces


def set_text(pieces) -> str:
    if not pieces:
        return "(empty)"
    return " | ".join(
        f"{'[' if lc else '('}{lo},{hi}{']' if hc else ')'}" for lo, hi, lc, hc in pieces
    )


def measure_of(pieces) -> Fraction:
    return sum((hi - lo for lo, hi, _, _ in pieces), Fraction(0))


def in_piece(x: Fraction, piece) -> bool:
    lo, hi, lc, hc = piece
    return (lo < x or (lc and lo == x)) and (x < hi or (hc and x == hi))


def sweep(piece_lists, combine):
    """Maximal intervals of the set whose membership is
    ``combine(memberships)``, over sorted disjoint piece lists.  A
    linear sweep: every list is walked once in endpoint order."""
    points = sorted({e for ps in piece_lists for p in ps for e in p[:2]}
                    | {Fraction(0), Fraction(1)})
    cursors = [0] * len(piece_lists)

    def member(x):
        hits = []
        for i, ps in enumerate(piece_lists):
            j = cursors[i]
            while j < len(ps) and (ps[j][1] < x or (ps[j][1] == x and not ps[j][3])):
                j += 1
            cursors[i] = j
            hits.append(j < len(ps) and in_piece(x, ps[j]))
        return combine(hits)

    return normalize(member, points)
