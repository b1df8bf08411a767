# Internal polynomial helpers. A polynomial is a tuple of Fractions,
# lowest degree first, with no trailing zeros; () is the zero polynomial.
# Bivariate polynomials are tuples of univariate ones: entry i is the
# coefficient (a polynomial in the second variable) of the first
# variable raised to i.
#
# gcd skips Euclid over Q when it can prove two nonzero polynomials
# coprime modulo the prime 2^31 - 1: their integer multiples are reduced
# mod p, and a constant gcd over GF(p) is a proof whenever p divides
# neither scaled leading coefficient (Gauss's lemma; see
# _coprime_mod_prime).  Every other case, a common factor included, runs
# Euclid over Q, so the result is exact either way.

import math
from fractions import Fraction

ZERO = ()
ONE = (Fraction(1),)
VAR = (Fraction(0), Fraction(1))


def trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def const(q):
    q = Fraction(q)
    return (q,) if q != 0 else ZERO


def degree(p):
    # -1 for the zero polynomial
    return len(p) - 1


def lc(p):
    return p[-1]


def add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p):
    return tuple(-c for c in p)


def sub(p, q):
    return add(p, neg(q))


def mul(p, q):
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def scale(p, c):
    c = Fraction(c)
    if c == 0:
        return ZERO
    return tuple(a * c for a in p)


def mul_xk(p, k):
    if not p:
        return ZERO
    return (Fraction(0),) * k + p


def divmod_(p, q):
    # schoolbook, top down: step k clears rem[k + dq], so the remainder is rem[:dq]
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    dq, cq = degree(q), lc(q)
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - dq, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + dq]
        if c:
            c = quo[k] = c / cq
            for i in range(dq):
                rem[k + i] -= c * q[i]
    return trim(quo), trim(rem[:dq])


def monic(p):
    if not p:
        return ZERO
    return tuple(c / lc(p) for c in p)


def gcd(p, q):
    if p and q and _coprime_mod_prime(p, q):
        return ONE
    a, b = p, q
    while b:
        a, b = b, divmod_(a, b)[1]
    return monic(a)


_PRIME = 2**31 - 1


def _coprime_mod_prime(p, q):
    """True only if nonzero p and q are coprime over Q, decided by Euclid
    over GF(_PRIME) on their integer multiples; False leaves it open.

    A common factor over Q can be taken primitive in Z[x], and it then
    divides both integer multiples (Gauss), so its leading coefficient
    divides theirs.  If the prime divides neither, the factor keeps its
    degree mod the prime and divides the gcd there: a constant gcd mod
    the prime leaves it no degree.
    """
    residues = []
    for f in (p, q):
        m = math.lcm(*(c.denominator for c in f))
        r = [c.numerator * (m // c.denominator) % _PRIME for c in f]
        if not r[-1]:
            return False
        residues.append(r)
    a, b = residues
    while len(b) > 1:
        inv, db = pow(b[-1], -1, _PRIME), len(b) - 1
        for k in range(len(a) - 1, db - 1, -1):  # clear a[k] with b shifted
            c = a[k] * inv % _PRIME
            if c:
                for i in range(db):
                    a[k - db + i] = (a[k - db + i] - c * b[i]) % _PRIME
        a = a[:db]
        while a and not a[-1]:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def eval_at(p, x):
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def compose(p, q):
    # p(q(x))
    acc = ZERO
    for c in reversed(p):
        acc = add(mul(acc, q), const(c))
    return acc


def _power(x, n, one, times):
    # x^n by repeated squaring: O(log n) calls of times
    acc = None
    while n:
        if n & 1:
            acc = x if acc is None else times(acc, x)
        n >>= 1
        if n:
            x = times(x, x)
    return one if acc is None else acc


def pow_(p, n):
    return _power(p, n, ONE, mul)


def cauchy_bound(p):
    # All real roots of p lie in [-B, B]; 0 for (near-)constant p.
    if degree(p) <= 0:
        return Fraction(0)
    top = abs(lc(p))
    worst = max(abs(c) for c in p[:-1])
    return 1 + worst / top


def least_negative(p, start):
    """The least integer k >= start with p(k) < 0, or None.

    Sturm's theorem counts the distinct real roots of p in each integer
    range (a, b]; a range without one has the sign of p(b) throughout,
    so only ranges holding a root are bisected.  The Cauchy bound only
    tops the first range: beyond it p has the sign of its leading
    coefficient.
    """
    if not p:
        return None

    def deriv(f):
        return tuple(i * c for i, c in enumerate(f))[1:]

    # the square-free part has the same real roots, all simple, so its
    # Sturm chain ends in a nonzero constant and counts roots in (a, b]
    sq = divmod_(p, gcd(p, deriv(p)))[0]
    chain = [sq, deriv(sq)]
    while chain[-1]:
        r = divmod_(chain[-2], chain[-1])[1]
        chain.append(scale(r, -1 / abs(lc(r))) if r else ZERO)
    chain.pop()

    def changes(x):
        signs = [v > 0 for v in (eval_at(f, x) for f in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    ranges = [(start, max(start, int(cauchy_bound(p)) + 1))]
    while ranges:  # leftmost range last, so the first hit is the least
        a, b = ranges.pop()
        if eval_at(p, a) < 0:
            return a
        if a == b:
            continue
        if changes(a) == changes(b):
            if eval_at(p, b) < 0:
                return a + 1
            continue
        mid = (a + b) // 2
        ranges += [(mid + 1, b), (a, mid)]
    return None


# -- bivariate layer ---------------------------------------------------

B_ZERO = ()
B_ONE = (ONE,)


def b_trim(polys):
    ps = list(polys)
    while ps and ps[-1] == ZERO:
        ps.pop()
    return tuple(ps)


def b_const(p):
    return (p,) if p else B_ZERO


def b_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, p in enumerate(b):
        out[i] = add(out[i], p)
    return b_trim(out)


def b_neg(a):
    return tuple(neg(p) for p in a)


def b_mul(a, b):
    if not a or not b:
        return B_ZERO
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, p in enumerate(a):
        if p == ZERO:
            continue
        for j, q in enumerate(b):
            out[i + j] = add(out[i + j], mul(p, q))
    return b_trim(out)


def b_pow(a, n):
    return _power(a, n, B_ONE, b_mul)


def b_eval_first(a, x):
    # substitute a rational for the first variable
    x = Fraction(x)
    acc = ZERO
    for p in reversed(a):
        acc = add(scale(acc, x), p)
    return acc


def b_diag(a):
    # substitute the second variable for the first
    acc = ZERO
    for i, p in enumerate(a):
        acc = add(acc, mul_xk(p, i))
    return acc
