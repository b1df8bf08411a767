"""Exact arithmetic for definable hyperrationals.

A Germ is a reduced rational function of one indeterminate ``w`` with
rational coefficients, read as the eventual behaviour of the sequence
``n -> f(n)``.  Ordering is eventual dominance: ``f < g`` when
``f(n) < g(n)`` for all sufficiently large integers ``n``.  On this
class of sequences every nonprincipal ultrafilter induces the same
order and field structure, because every eventual property holds on a
cofinite index set; no choice of ultrafilter is needed.

Canonical form: numerator and denominator are coprime and the
denominator is monic, so structural equality coincides with equality
of germs.  All coefficients are exact; no floating point is used.

The fast paths rest on two invariants of that form.  A monic
denominator is eventually positive, so the sign of a germ, and hence
the order of two germs, is the sign of a leading coefficient:
``compare`` reads it off ``a.num*b.den - b.num*a.den`` (or off the
valuations alone) without building ``a - b``.  A constant shares no
factor of positive degree with any polynomial, so a germ whose
numerator or denominator is constant needs no gcd, only division by
the leading coefficient of its denominator.

Most other germs a computation builds are already coprime, and
``_poly.gcd`` proves that without Euclid over Q: it clears denominators,
reduces the coefficients modulo the prime 2^31 - 1 and runs Euclid
there.  A common factor over Q can be taken primitive in Z[x], so its
leading coefficient divides both scaled leading coefficients; when the
prime divides neither, the factor keeps its degree modulo the prime,
and a constant gcd there rules it out.  Any other outcome falls back to
Euclid over Q, so the canonical form is the same either way.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from . import _poly as P
from .errors import DegenerateDiagonalError, EngineError, ZeroGermError

# Largest |n| accepted by Germ.__pow__ and BivariateGerm.__pow__.
MAX_EXPONENT = 1000


def _check_exponent(n):
    if abs(n) > MAX_EXPONENT:
        raise EngineError(
            f"exponent {n} exceeds the limit of {MAX_EXPONENT} in absolute value"
        )


class InfiniteShadow:
    """Marker for the shadow of an unlimited germ (+inf or -inf)."""

    __slots__ = ("sign",)

    def __init__(self, sign):
        self.sign = sign

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"

    def __neg__(self):
        return NEG_INF if self.sign > 0 else POS_INF


POS_INF = InfiniteShadow(1)
NEG_INF = InfiniteShadow(-1)


class GermClass(enum.Enum):
    ZERO = "zero"
    STANDARD_NONZERO = "standard-nonzero"
    INFINITESIMAL_NONZERO = "infinitesimal-nonzero"
    APPRECIABLE_NONSTANDARD = "appreciable-nonstandard"
    UNLIMITED_POSITIVE = "unlimited-positive"
    UNLIMITED_NEGATIVE = "unlimited-negative"


class Germ:
    """A reduced rational function of ``w``; immutable and hashable."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P.ONE):
        if isinstance(num, (int, Fraction)):
            num = P.const(num)
        if isinstance(den, (int, Fraction)):
            den = P.const(den)
        num, den = P.trim(num), P.trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in germ")
        if not num:
            den = P.ONE
        else:
            if len(num) > 1 and len(den) > 1:
                # a constant shares no factor with anything
                g = P.gcd(num, den)
                if P.degree(g) > 0:
                    num = P.divmod_(num, g)[0]
                    den = P.divmod_(den, g)[0]
            c = P.lc(den)
            if c != 1:
                num = P.scale(num, 1 / c)
                den = P.scale(den, 1 / c)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------

    @staticmethod
    def _make(num, den) -> "Germ":
        """A germ from trimmed, coprime num and monic den; no gcd, no check."""
        g = object.__new__(Germ)
        g.num = num
        g.den = den
        return g

    @staticmethod
    def constant(q) -> "Germ":
        return Germ(P.const(q))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return P.degree(self.num) <= 0 and self.den == P.ONE

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("germ is not constant")
        return self.num[0] if self.num else Fraction(0)

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Germ):
            return x
        if isinstance(x, (int, Fraction)):
            return Germ.constant(x)
        return NotImplemented

    def __add__(self, other):
        other = Germ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return Germ(P.add(self.num, other.num), self.den)
        return Germ(
            P.add(P.mul(self.num, other.den), P.mul(other.num, self.den)),
            P.mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return Germ._make(P.neg(self.num), self.den)

    def __sub__(self, other):
        other = Germ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = Germ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Germ(P.mul(self.num, other.num), P.mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Germ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero germ")
        return Germ(P.mul(self.num, other.den), P.mul(self.den, other.num))

    def __rtruediv__(self, other):
        other = Germ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        _check_exponent(n)
        if n < 0:
            return Germ.constant(1) / self ** (-n)
        # powers of coprime polynomials stay coprime, of monic ones monic
        return Germ._make(P.pow_(self.num, n), P.pow_(self.den, n))

    # -- order ---------------------------------------------------------

    def __eq__(self, other):
        other = Germ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes as its value, since it equals that number
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.num, self.den))

    def __lt__(self, other):
        return compare(self, other) < 0

    def __le__(self, other):
        return compare(self, other) <= 0

    def __gt__(self, other):
        return compare(self, other) > 0

    def __ge__(self, other):
        return compare(self, other) >= 0

    def __abs__(self):
        return self if compare(self, ZERO) >= 0 else -self

    def __bool__(self):
        return not self.is_zero()

    # -- misc ----------------------------------------------------------

    def evaluate(self, n) -> Fraction:
        """Exact value of the defining sequence at index ``n``."""
        d = P.eval_at(self.den, n)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at n={n}")
        return P.eval_at(self.num, n) / d

    def __repr__(self):
        return f"Germ({self})"

    def __str__(self):
        from . import exprlang

        return exprlang.format(exprlang.germ_to_ast(self))


ZERO = Germ.constant(0)
ONE = Germ.constant(1)
OMEGA = Germ(P.VAR)


def arith(a: Germ, b: Germ, op: str) -> Germ:
    """Field operation on germs; op is add, sub, mul or div."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def compare(a: Germ, b) -> int:
    """Sign of a - b under eventual dominance: -1, 0 or +1.

    Denominators are monic, hence eventually positive, so the sign is
    that of the leading coefficient of a.num*b.den - b.num*a.den; when
    the valuations differ, the germ of larger valuation decides alone.
    """
    if isinstance(b, Germ):
        bn, bd = b.num, b.den
    elif isinstance(b, (int, Fraction)):
        bn, bd = P.const(b), P.ONE
    else:
        raise TypeError("a germ compares only with a germ, int or Fraction")
    an, ad = a.num, a.den
    if not bn:
        return _sign(P.lc(an)) if an else 0
    if not an:
        return -_sign(P.lc(bn))
    va, vb = len(an) - len(ad), len(bn) - len(bd)
    if va != vb:
        return _sign(P.lc(an)) if va > vb else -_sign(P.lc(bn))
    if len(an) == len(ad) == len(bd) == 1:  # two constants
        x, y = an[0], bn[0]
        return (x > y) - (x < y)
    if ad == bd:
        d = P.sub(an, bn)
    else:
        d = P.sub(P.mul(an, bd), P.mul(bn, ad))
    return _sign(P.lc(d)) if d else 0


def valuation(a: Germ):
    """Growth order deg(num) - deg(den); None for the zero germ.

    valuation(a*b) = valuation(a) + valuation(b) for nonzero a, b.
    """
    if a.is_zero():
        return None
    return P.degree(a.num) - P.degree(a.den)


def shadow(a: Germ):
    """Exact standard part: a Fraction for limited germs, else +-inf."""
    if a.is_zero():
        return Fraction(0)
    v = valuation(a)
    if v < 0:
        return Fraction(0)
    if v == 0:
        return P.lc(a.num) / P.lc(a.den)
    return POS_INF if P.lc(a.num) > 0 else NEG_INF


def is_limited(a: Germ) -> bool:
    v = valuation(a)
    return v is None or v <= 0


def is_infinitesimal(a: Germ) -> bool:
    v = valuation(a)
    return v is None or v < 0


def classify(a: Germ) -> GermClass:
    if a.is_zero():
        return GermClass.ZERO
    if a.is_constant():
        return GermClass.STANDARD_NONZERO
    v = valuation(a)
    if v < 0:
        return GermClass.INFINITESIMAL_NONZERO
    if v == 0:
        return GermClass.APPRECIABLE_NONSTANDARD
    return (
        GermClass.UNLIMITED_POSITIVE
        if compare(a, ZERO) > 0
        else GermClass.UNLIMITED_NEGATIVE
    )


def eventually_threshold(a: Germ) -> int:
    """An integer N0 past which sign(a(n)) is constant and the
    denominator never vanishes.

    Uses the Cauchy root bound of num*den, so N0 is sound but usually
    not minimal.
    """
    if a.is_zero():
        raise ZeroGermError("the zero germ has no eventual sign")
    prod = P.mul(a.num, a.den)
    if P.degree(prod) == 0:
        return 1
    bound = P.cauchy_bound(prod)
    return int(bound) + 1


class BivariateGerm:
    """A rational function of two indeterminates ``k`` and ``w``,
    housing a definable family of germs indexed by ``k``."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P.B_ONE):
        num, den = P.b_trim(num), P.b_trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in bivariate germ")
        self.num = num
        self.den = den

    @staticmethod
    def constant(q) -> "BivariateGerm":
        return BivariateGerm(P.b_const(P.const(q)))

    @staticmethod
    def from_germ(g: Germ) -> "BivariateGerm":
        return BivariateGerm(P.b_const(g.num), P.b_const(g.den))

    @staticmethod
    def _coerce(x):
        if isinstance(x, BivariateGerm):
            return x
        if isinstance(x, Germ):
            return BivariateGerm.from_germ(x)
        if isinstance(x, (int, Fraction)):
            return BivariateGerm.constant(x)
        return NotImplemented

    def __add__(self, other):
        other = BivariateGerm._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return BivariateGerm(
            P.b_add(P.b_mul(self.num, other.den), P.b_mul(other.num, self.den)),
            P.b_mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return BivariateGerm(P.b_neg(self.num), self.den)

    def __sub__(self, other):
        other = BivariateGerm._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = BivariateGerm._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return BivariateGerm(
            P.b_mul(self.num, other.num), P.b_mul(self.den, other.den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = BivariateGerm._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero family")
        return BivariateGerm(
            P.b_mul(self.num, other.den), P.b_mul(self.den, other.num)
        )

    def __rtruediv__(self, other):
        other = BivariateGerm._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        _check_exponent(n)
        if n < 0:
            return BivariateGerm.constant(1) / self ** (-n)
        return BivariateGerm(P.b_pow(self.num, n), P.b_pow(self.den, n))

    def at_k(self, n) -> Germ:
        """The member germ at index k = n."""
        den = P.b_eval_first(self.den, n)
        if not den:
            raise ZeroDivisionError(f"family denominator vanishes at k={n}")
        return Germ(P.b_eval_first(self.num, n), den)

    def __eq__(self, other):
        if not isinstance(other, BivariateGerm):
            return NotImplemented
        return P.b_mul(self.num, other.den) == P.b_mul(other.num, self.den)

    def __hash__(self):
        # num and den are not reduced, so hash what equal families share:
        # the degree gap in k and the ratio of the leading coefficients
        # in k, a germ in w (both are multiplicative).
        if not self.num:
            return 0
        lead = Germ(self.num[-1], self.den[-1])
        return hash((len(self.num) - len(self.den), lead))


VAR_K = BivariateGerm((P.ZERO, P.ONE))
VAR_W = BivariateGerm((P.VAR,))


def diagonal(family: BivariateGerm) -> Germ:
    """Collapse a k-indexed family to the germ of its diagonal k = w."""
    den = P.b_diag(family.den)
    if not den:
        raise DegenerateDiagonalError(
            "family denominator vanishes identically on the diagonal"
        )
    return Germ(P.b_diag(family.num), den)


def parse_germ(text: str) -> Germ:
    """Parse a germ expression such as ``(2*w^2+3)/(w^2-w)``."""
    from . import exprlang

    return exprlang.to_germ(exprlang.parse(text, "germ"))


def parse_germ_in_k(text: str) -> Germ:
    """Parse an expression in ``k`` alone as a germ in the k-variable."""
    from . import exprlang

    return exprlang.to_germ(exprlang.parse(text, "family"), var="k")


def parse_family(text: str) -> BivariateGerm:
    """Parse a two-variable family expression over ``k`` and ``w``."""
    from . import exprlang

    return exprlang.to_family(exprlang.parse(text, "family"))
