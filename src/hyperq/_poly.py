# Internal polynomial helpers. A polynomial is a tuple of Python ints,
# lowest degree first, with no trailing zeros; () is the zero polynomial.
# Bivariate polynomials are tuples of univariate ones: entry i is the
# coefficient (a polynomial in the second variable) of the first
# variable raised to i.
#
# Every kernel computes over Z.  Division is pseudo-division: divmod_
# returns the quotient and remainder of d * p, for a multiplier d > 0
# that divides a power of the divisor's leading coefficient and is 1
# for an exact division with an integral quotient.  A germ's rational
# coefficients live in the ratio of its numerator and denominator (see
# germ.py), so only eval_at, which returns a rational value, builds a
# Fraction.
#
# gcd returns the gcd that is primitive with a positive leading
# coefficient, unique among its rational multiples.  It skips all
# division when it can prove two nonzero polynomials coprime modulo the
# prime 2^31 - 1: a constant gcd over GF(p) is a proof whenever p
# divides neither leading coefficient (see _coprime_mod_prime).  Every
# other case, a common factor included, runs the primitive PRS (Collins
# 1967; Brown 1971): pseudo-remainders with their content removed, so
# the result is exact either way.

import math
from fractions import Fraction

ZERO = ()
ONE = (1,)
VAR = (0, 1)


def trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def const(c):
    return (c,) if c else ZERO


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


def _mul_into(out, a, b):
    # schoolbook: add the product of a and b into the list out
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y


def mul(p, q):
    if not p or not q:
        return ZERO
    if len(p) == 1:
        return scale(q, p[0])
    if len(q) == 1:
        return scale(p, q[0])
    out = [0] * (len(p) + len(q) - 1)
    _mul_into(out, p, q)
    return tuple(out)


def mul_add(p, q, r, s):
    """p*q + r*s, summed in one list."""
    out = [0] * max(len(p) + len(q) - 1, len(r) + len(s) - 1, 0)
    _mul_into(out, p, q)
    _mul_into(out, r, s)
    return trim(out)


def cross_sign(p, q, r, s):
    """The sign of the leading coefficient of p*q - r*s, 0 if it is zero."""
    d = mul_add(p, q, neg(r), s)
    return (d[-1] > 0) - (d[-1] < 0) if d else 0


def scale(p, c):
    if not c:
        return ZERO
    return tuple(a * c for a in p)


def mul_xk(p, k):
    if not p:
        return ZERO
    return (0,) * k + p


def divmod_(p, q):
    """(quo, rem, d): d * p == quo * q + rem, deg rem < deg q, d > 0.

    The division runs top down over a window of deg q + 1 coefficients.
    Step k clears the window's top c; it multiplies the window by
    |lc(q)| / gcd(c, lc(q)) only when lc(q) does not divide c, so d == 1
    whenever q divides p with an integral quotient (a primitive q
    dividing p over Q, by Gauss's lemma), and a monic q never scales.
    Each quotient coefficient is scaled up to the final d once, at the
    end.
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = len(q) - 1, q[-1]
    if len(p) <= db:
        return ZERO, p, 1
    low = q[:-1]
    top = len(p) - db - 1
    win = list(p[top:])  # coefficients top .. top + db, d times their value
    quo = [None] * (top + 1)  # (c, e): the coefficient is c / e times d
    d = 1
    for k in range(top, -1, -1):
        c = win[-1]
        if c:
            s = abs(lb) // math.gcd(c, lb)
            if s != 1:
                win = [x * s for x in win]
                d *= s
                c *= s
            c //= lb
            for i, y in enumerate(low):
                win[i] -= c * y
        quo[k] = (c, d)
        win.pop()
        if k:
            win.insert(0, p[k - 1] * d)
    return tuple(c if e == d else c * (d // e) for c, e in quo), trim(win), d


def _primitive(p, sign=1):
    """sign * p divided by its content, which is positive."""
    g = sign * math.gcd(*p)
    return tuple(c // g for c in p) if g != 1 else tuple(p)


def gcd(p, q):
    """The primitive gcd, with a positive leading coefficient; () for two zeros."""
    if not p or not q:
        p = p or q
        return _primitive(p, 1 if p[-1] > 0 else -1) if p else ZERO
    if _coprime_mod_prime(p, q):
        return ONE
    # primitive PRS: the content of each pseudo-remainder is removed, so
    # the coefficients stay as small as the gcd's factors allow
    a, b = _primitive(p), _primitive(q)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem = divmod_(a, b)[1]
        if not rem:
            return b if b[-1] > 0 else neg(b)
        a, b = b, _primitive(rem)
    return ONE


_PRIME = 2**31 - 1


def _coprime_mod_prime(p, q):
    """True only if nonzero p and q are coprime over Q, decided by Euclid
    over GF(_PRIME); False leaves it open.

    A common factor over Q can be taken primitive in Z[x], and it then
    divides both (Gauss), so its leading coefficient divides theirs.  If
    the prime divides neither, the factor keeps its degree mod the
    prime and divides the gcd there: a constant gcd mod the prime
    leaves it no degree.
    """
    residues = []
    for f in (p, q):
        r = [c % _PRIME for c in f]
        if not r[-1]:
            return False
        residues.append(r)
    a, b = residues
    while len(b) > 1:
        inv, db = pow(b[-1], -1, _PRIME), len(b) - 1
        low = [y * inv % _PRIME for y in b[:-1]]  # b made monic, less its top
        for k in range(len(a) - 1, db - 1, -1):  # clear a[k] with b shifted
            c = a[k]
            if c:
                a[k - db : k] = [(x - c * y) % _PRIME for x, y in zip(a[k - db : k], low)]
        a = a[:db]
        while a and not a[-1]:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def _horner(a, u, v=1):
    """The sum of a_i u^i v^(n-i), n = len(a) - 1: v^n times the value
    of a at u / v, by homogeneous Horner; 0 for the zero polynomial."""
    if not a:
        return 0
    acc = a[-1]
    if v == 1:
        for c in reversed(a[:-1]):
            acc = acc * u + c
        return acc
    w = 1
    for c in reversed(a[:-1]):
        w *= v
        acc = acc * u + c * w
    return acc


def eval_at(p, x):
    v = x.denominator
    return Fraction(_horner(p, x.numerator, v), v ** max(len(p) - 1, 0))


def shift(p):
    # p(x + 1), the Taylor shift: synthetic division by x - 1, repeated
    a = list(p)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return tuple(a)


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
    # An integer B with every real root of p in (-B, B): the Cauchy
    # bound 1 + max|c|/|lc| is below its floor plus 1.  1 for a
    # (near-)constant p.
    if degree(p) <= 0:
        return 1
    worst = max(abs(c) for c in p[:-1])
    return 2 + worst // abs(lc(p))


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
    if start >= 1 and (min(p) >= 0 or max(p) <= 0):
        # one-signed coefficients leave no positive root (Descartes): no
        # Sturm chain is needed, p has the sign of lc(p) at every k >= 1
        return start if p[-1] < 0 else None

    def deriv(f):
        return tuple(i * c for i, c in enumerate(f))[1:]

    # the square-free part has the same real roots, all simple, so its
    # Sturm chain ends in a nonzero constant and counts roots in (a, b];
    # only signs are read, so the chain holds positive integer multiples
    # (the quotient by a primitive gcd is integral)
    sq = divmod_(p, gcd(p, deriv(p)))[0]
    chain = [sq, deriv(sq)]
    while chain[-1]:
        r = divmod_(chain[-2], chain[-1])[1]
        if not r:
            break
        # the next member is minus the remainder
        chain.append(_primitive(r, -1))
    if not chain[-1]:
        chain.pop()

    def negative_at(x):
        return _horner(p, x) < 0

    def changes(x):
        signs = [v > 0 for v in (_horner(f, x) for f in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    ranges = [(start, max(start, cauchy_bound(p)))]
    while ranges:  # leftmost range last, so the first hit is the least
        a, b = ranges.pop()
        if negative_at(a):
            return a
        if a == b:
            continue
        if changes(a) == changes(b):
            if negative_at(b):
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


def b_degree(a):
    # the total degree; -1 for the zero polynomial
    return max((i + len(p) - 1 for i, p in enumerate(a) if p), default=-1)


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
    # substitute a rational u / v for the first variable: v^n times the
    # value, the sum of a_i u^i v^(n-i) with n = len(a) - 1
    if not a:
        return ZERO
    u, v, n = x.numerator, x.denominator, len(a) - 1
    out = [0] * max(map(len, a))
    for i, p in enumerate(a):
        k = u**i * v ** (n - i)
        for j, c in enumerate(p):
            out[j] += c * k
    return trim(out)


def b_diag(a):
    # substitute the second variable for the first
    acc = ZERO
    for i, p in enumerate(a):
        acc = add(acc, mul_xk(p, i))
    return acc
