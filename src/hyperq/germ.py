"""Exact arithmetic for definable hyperrationals.

A Germ is a reduced rational function of one indeterminate ``w`` with
rational coefficients, read as the eventual behaviour of the sequence
``n -> f(n)``.  Ordering is eventual dominance: ``f < g`` when
``f(n) < g(n)`` for all sufficiently large integers ``n``.  On this
class of sequences every nonprincipal ultrafilter induces the same
order and field structure, because every eventual property holds on a
cofinite index set; no choice of ultrafilter is needed.

Canonical form: numerator and denominator are tuples of Python ints,
coprime over Q, jointly primitive (the gcd of all their coefficients
is 1), and the denominator's leading coefficient is positive.  Each
germ has exactly one such form, so structural equality coincides with
equality of germs, and a constant ``p/q`` is stored as ``(p,)/(q,)``,
``Fraction``'s own normal form.  The rational coefficients live in the
ratio: ``Fraction`` inputs are cleared once, by the public constructor,
and every polynomial kernel runs on ints (Gauss's lemma makes Z[w]
enough).  No floating point is used.

The fast paths rest on two invariants of that form.  A denominator with
a positive leading coefficient is eventually positive, so the sign of a
germ, and hence the order of two germs, is the sign of a leading
coefficient: ``compare`` reads it off ``a.num*b.den - b.num*a.den`` (or
off the valuations alone) without building ``a - b``.  A constant
shares no factor of positive degree with any polynomial, so a germ
whose numerator or denominator is constant needs no gcd, only the
division by the joint content.

Most other germs a computation builds are already coprime, and
``_poly.gcd`` proves that without dividing, by Euclid modulo a prime,
before it falls back to the primitive PRS over Z (see ``_poly``).  The
gcd is primitive, so the quotients by it are integral.

Products, quotients, sums and powers whose degree would pass
``MAX_DEGREE`` are refused before they are computed, and so are those
of families whose products would cost more than ``MAX_FAMILY_WORK``
multiply-adds, so that no input runs for ever.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from . import _poly as P
from .errors import DegenerateDiagonalError, EngineError, NonMonotoneGeneratorError, ZeroGermError

# Largest |n| accepted by Germ.__pow__ and BivariateGerm.__pow__.
MAX_EXPONENT = 1000
# Largest degree of a germ or family product, quotient, sum or power.
MAX_DEGREE = 2 * MAX_EXPONENT
# Largest number of multiply-adds that one product of a family sum,
# product, quotient or power may cost: ``_poly.b_mul`` multiplies each
# nonzero term of one operand by every stored coefficient of the other.
MAX_FAMILY_WORK = 8_000_000


def _check_exponent(n):
    if abs(n) > MAX_EXPONENT:
        raise EngineError(
            f"exponent {n} exceeds the limit of {MAX_EXPONENT} in absolute value"
        )


def _check_degree(d):
    """Refuse, before it is computed, a result of degree up to d.  The
    degree of a germ or family is the larger (total) degree of its
    numerator and denominator, so that of a sum, product or quotient
    is at most the sum of the operands' degrees, and that of an n-th
    power at most |n| times the operand's."""
    if d > MAX_DEGREE:
        raise EngineError(f"degree {d} exceeds the limit of {MAX_DEGREE}")


def _check_work(a, b):
    """Refuse, before it is computed, a family operation on operands of
    sizes a and b, each (nonzero terms, stored coefficients) of numerator
    and denominator together.  The degree cap leaves this work free to
    grow with the cube of the degree."""
    work = max(a[0] * b[1], a[1] * b[0])
    if work > MAX_FAMILY_WORK:
        raise EngineError(
            f"family operation costing {work} multiply-adds exceeds the limit of {MAX_FAMILY_WORK}"
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
        # num and den: ints, Fractions, or coefficient tuples of them
        if isinstance(num, (int, Fraction)):
            num = (num,)
        if isinstance(den, (int, Fraction)):
            den = (den,)
        num, den = P.trim(num), P.trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in germ")
        if not num:
            self.num, self.den = P.ZERO, P.ONE
            return
        try:
            c = math.gcd(*num, *den)
        except TypeError:  # Fraction coefficients: clear them, once, here
            m = math.lcm(*(x.denominator for x in num + den))
            num, den = (tuple(x.numerator * (m // x.denominator) for x in p) for p in (num, den))
            c = math.gcd(*num, *den)
        if len(num) > 1 and len(den) > 1:
            # a constant shares no factor with anything; the gcd is
            # primitive, so the quotients are integral and keep content c
            g = P.gcd(num, den)
            if len(g) > 1:
                num = P.divmod_(num, g)[0]
                den = P.divmod_(den, g)[0]
        if den[-1] < 0:
            c = -c
        if c != 1:
            num = tuple(x // c for x in num)
            den = tuple(x // c for x in den)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------

    @staticmethod
    def _make(num, den) -> "Germ":
        """A germ from num and den already in canonical form; no check."""
        g = object.__new__(Germ)
        g.num = num
        g.den = den
        return g

    @staticmethod
    def constant(q) -> "Germ":
        """The constant germ of q: an int, or anything Fraction reads."""
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return Germ._make(P.const(q.numerator), (q.denominator,))

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("germ is not constant")
        return Fraction(self.num[0], self.den[0]) if self.num else Fraction(0)

    # -- arithmetic ----------------------------------------------------

    def _degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1

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
        _check_degree(self._degree() + other._degree())
        return Germ(
            P.mul_add(self.num, other.den, other.num, self.den),
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
        _check_degree(self._degree() + other._degree())
        return Germ(P.mul(self.num, other.num), P.mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Germ._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero germ")
        _check_degree(self._degree() + other._degree())
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
        _check_degree(abs(n) * self._degree())
        if n < 0:
            return Germ.constant(1) / self ** (-n)
        # powers of coprime polynomials stay coprime, of jointly
        # primitive ones jointly primitive (Gauss), and lc(den)^n > 0
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
        """Exact value of the defining sequence at an int or Fraction ``n``."""
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

    Denominators have positive leading coefficients, hence are
    eventually positive, so the sign is that of the leading coefficient
    of a.num*b.den - b.num*a.den; when the valuations differ, the germ
    of larger valuation decides alone.
    """
    if isinstance(b, Germ):
        bn, bd = b.num, b.den
    elif isinstance(b, (int, Fraction)):
        bn, bd = P.const(b.numerator), (b.denominator,)
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
        x, y = an[0] * bd[0], bn[0] * ad[0]
        return (x > y) - (x < y)
    if ad == bd:
        d = P.sub(an, bn)
        return _sign(P.lc(d)) if d else 0
    return P.cross_sign(an, bd, bn, ad)


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
        return Fraction(P.lc(a.num), P.lc(a.den))
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
    return P.cauchy_bound(P.mul(a.num, a.den))


def shift(g: Germ) -> Germ:
    """The germ of k -> g(k + 1), canonical as g is: the shift is an
    automorphism of Z[k] that keeps leading coefficients."""
    return Germ._make(P.shift(g.num), P.shift(g.den))


def first_against(g: Germ, start: int, sign: int, base: Germ = None, strict: bool = False):
    """The least integer k >= start at which sign*(g(k+1) - b(k)) >= 0
    fails, or > 0 when strict, for b = base, else g itself: with no
    base, the first step of g against sign.  None if there is none.
    Exact root counting decides it for every k; a pole of g or base at
    some k >= start raises NonMonotoneGeneratorError."""
    b = g if base is None else base
    for f in (g,) if base is None else (g, base):
        # den has integer values, so den(k)^2 - 1 < 0 exactly where den(k) = 0
        pole = P.least_negative(P.sub(P.mul(f.den, f.den), P.ONE), start)
        if pole is not None:
            raise NonMonotoneGeneratorError(f"endpoint has a pole at k={pole}")
    # off the poles, h - b has the sign of the integer-valued
    # (h.num*b.den - b.num*h.den)*b.den*h.den, which is <= 0 where it is < 1
    h = shift(g)
    step = P.mul(P.mul_add(h.num, b.den, P.neg(b.num), h.den), P.mul(b.den, h.den))
    return P.least_negative(P.sub(P.scale(step, sign), P.const(int(strict))), start)


def direction(g: Germ, start: int) -> int:
    """Monotonicity of k -> g(k) on the integers k >= start: -1 falling,
    0 constant, +1 rising.  No step may go against the eventual one, and
    g may have no pole there; NonMonotoneGeneratorError names the k."""
    sign = compare(shift(g), g)
    turn = first_against(g, start, sign)
    if turn is not None:
        raise NonMonotoneGeneratorError(f"endpoint is not monotone at k={turn}")
    return sign


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
        q = Fraction(q)
        return BivariateGerm(P.b_const(P.const(q.numerator)), P.b_const((q.denominator,)))

    def _degree(self) -> int:
        return max(P.b_degree(self.num), P.b_degree(self.den))

    def _size(self, m=1) -> tuple:
        """The nonzero terms and the stored coefficients of num^m and
        den^m together: exact for m = 1, else bounds.  A power fits in
        the box of its degrees in k and in w, and a multinomial m-th
        power of t terms has at most comb(m + t - 1, t - 1) of them."""
        terms = coeffs = 0
        for a in (self.num, self.den):
            c = sum(map(len, a))
            t = c - sum(p.count(0) for p in a)
            if m != 1 and t:
                c = (m * (len(a) - 1) + 1) * (m * (max(map(len, a)) - 1) + 1)
                t = min(math.comb(m + t - 1, t - 1), c)
            terms += t
            coeffs += c
        return terms, coeffs

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
        _check_degree(self._degree() + other._degree())
        _check_work(self._size(), other._size())
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
        _check_degree(self._degree() + other._degree())
        _check_work(self._size(), other._size())
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
        _check_degree(self._degree() + other._degree())
        _check_work(self._size(), other._size())
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
        _check_degree(abs(n) * self._degree())
        # as if a^|n| were one product of its two halves
        half = abs(n) // 2
        _check_work(self._size(abs(n) - half), self._size(half))
        if n < 0:
            return BivariateGerm.constant(1) / self ** (-n)
        return BivariateGerm(P.b_pow(self.num, n), P.b_pow(self.den, n))

    def at_k(self, n) -> Germ:
        """The member germ at index k = n, an int or a Fraction."""
        den = P.b_eval_first(self.den, n)
        if not den:
            raise ZeroDivisionError(f"family denominator vanishes at k={n}")
        # each is v^(its degree in k) times its value at n = u / v
        e, v = len(self.num) - len(self.den), n.denominator
        num = P.b_eval_first(self.num, n)
        return Germ(P.scale(num, v ** max(-e, 0)), P.scale(den, v ** max(e, 0)))

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
