# Internal polynomial helpers. A polynomial is a tuple of Fractions,
# lowest degree first, with no trailing zeros; () is the zero polynomial.
# Bivariate polynomials are tuples of univariate ones: entry i is the
# coefficient (a polynomial in the second variable) of the first
# variable raised to i.
#
# The kernels that loop over coefficients (mul, the fused mul_add and
# cross_sign, divmod_, eval_at, b_eval_first, gcd and the Sturm chain of
# least_negative) compute over Z: to_ints clears each operand's
# denominators once, the loops run on Python ints, and from_ints builds
# each result Fraction once, at the end.  A length-1 factor stays a
# scale, and a length-1 divisor a scale by its inverse.
#
# gcd skips all division when it can prove two nonzero polynomials
# coprime modulo the prime 2^31 - 1: their integer multiples are reduced
# mod p, and a constant gcd over GF(p) is a proof whenever p divides
# neither scaled leading coefficient (Gauss's lemma; see
# _coprime_mod_prime).  Every other case, a common factor included, runs
# the primitive PRS over Z (Collins 1967; Brown 1971): pseudo-remainders
# with their content removed, made monic at the end, so the result is
# exact either way.

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


def to_ints(p):
    """(cs, m): the integers cs and the least m > 0 with p == cs / m."""
    m = math.lcm(*(c.denominator for c in p))
    if m == 1:
        return [c.numerator for c in p], 1
    return [c.numerator * (m // c.denominator) for c in p], m


def from_ints(cs, m=1):
    """The polynomial cs / m, one Fraction per coefficient, trimmed."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    if m == 1:
        return tuple(Fraction(c) for c in cs[:n])
    return tuple(Fraction(c, m) for c in cs[:n])


def _mul_into(out, a, b):
    # schoolbook: add the product of the integer lists a and b into out
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
    (a, ma), (b, mb) = to_ints(p), to_ints(q)
    out = [0] * (len(a) + len(b) - 1)
    _mul_into(out, a, b)
    return from_ints(out, ma * mb)


def _cross(p, q, r, s, sign):
    """(cs, m) with p*q + sign*r*s == cs / m, summed over Z in one list."""
    (a, ma), (b, mb), (c, mc), (d, md) = to_ints(p), to_ints(q), to_ints(r), to_ints(s)
    m = math.lcm(ma * mb, mc * md)
    ka, kc = m // (ma * mb), sign * (m // (mc * md))
    if ka != 1:
        a = [x * ka for x in a]
    c = [x * kc for x in c]
    out = [0] * max(len(a) + len(b) - 1, len(c) + len(d) - 1, 0)
    _mul_into(out, a, b)
    _mul_into(out, c, d)
    return out, m


def mul_add(p, q, r, s):
    """p*q + r*s, with one Fraction per coefficient of the sum."""
    return from_ints(*_cross(p, q, r, s, 1))


def cross_sign(p, q, r, s):
    """The sign of the leading coefficient of p*q - r*s, 0 if it is zero."""
    for c in reversed(_cross(p, q, r, s, -1)[0]):
        if c:
            return 1 if c > 0 else -1
    return 0


def scale(p, c):
    c = Fraction(c)
    if c == 0:
        return ZERO
    return tuple(a * c for a in p)


def mul_xk(p, k):
    if not p:
        return ZERO
    return (Fraction(0),) * k + p


def _pdivmod(a, b):
    """Divide the integer coefficients a by b, top down, over Z.

    Returns (quo, rem, d): quo[k] = (n, e) holds the quotient's
    coefficient of x^k as n / e, and the trimmed rem over d is the
    remainder.  Step k clears the top of a window of deg b + 1
    coefficients; it multiplies the window by lc(b) / gcd(c, lc(b))
    only when lc(b) does not divide its top c, so a monic divisor never
    scales, and coefficients below the window enter it scaled by the
    running d.
    """
    db, lb = len(b) - 1, b[-1]
    low = b[:-1]
    top = len(a) - db - 1
    win = list(a[top:])  # coefficients top .. top + db, d times their value
    quo = [None] * (top + 1)
    d = 1
    for k in range(top, -1, -1):
        c = win[-1]
        if c:
            g = math.gcd(c, lb)
            if g != abs(lb):
                s = lb // g
                win = [x * s for x in win]
                d *= s
                c *= s
            c //= lb
            for i, y in enumerate(low):
                win[i] -= c * y
        quo[k] = (c, d)
        win.pop()
        if k:
            win.insert(0, a[k - 1] * d)
    while win and not win[-1]:
        win.pop()
    return quo, win, d


def divmod_(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    if len(q) == 1:
        return scale(p, 1 / q[0]), ZERO
    if len(p) < len(q):
        return ZERO, p
    (a, ma), (b, mb) = to_ints(p), to_ints(q)
    quo, rem, d = _pdivmod(a, b)
    # p = (a / ma) and q = (b / mb): scale the quotient by mb / ma and
    # the remainder by 1 / ma
    return (
        tuple(Fraction(n * mb, e * ma) if n else Fraction(0) for n, e in quo),
        from_ints(rem, d * ma),
    )


def monic(p):
    if not p:
        return ZERO
    return tuple(c / lc(p) for c in p)


def _primitive(cs):
    g = math.gcd(*cs)
    return [c // g for c in cs] if g != 1 else cs


def gcd(p, q):
    if not p or not q:
        return monic(p or q)
    if _coprime_mod_prime(p, q):
        return ONE
    # primitive PRS: the content of each pseudo-remainder is removed, so
    # the coefficients stay as small as the gcd's factors allow
    a, b = _primitive(to_ints(p)[0]), _primitive(to_ints(q)[0])
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        rem = _pdivmod(a, b)[1]
        if not rem:
            return from_ints(b, b[-1])
        a, b = b, _primitive(rem)
    return ONE


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
        r = [c % _PRIME for c in to_ints(f)[0]]
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
    """The sum of a_i u^i v^(n-i) over the integers a, n = len(a) - 1:
    v^n times the value of a at u / v, by homogeneous Horner."""
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
    x = Fraction(x)
    if not p:
        return Fraction(0)
    a, m = to_ints(p)
    v = x.denominator
    return Fraction(_horner(a, x.numerator, v), m * v ** (len(a) - 1))


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
    # Sturm chain ends in a nonzero constant and counts roots in (a, b];
    # only signs are read, so the chain holds positive integer multiples
    sq = to_ints(divmod_(p, gcd(p, deriv(p)))[0])[0]
    chain = [sq, deriv(sq)]
    while chain[-1]:
        _, r, d = _pdivmod(chain[-2], chain[-1])
        if not r:
            break
        # the next member is minus the remainder r / d
        chain.append(_primitive([-c for c in r] if d > 0 else r))
    if not chain[-1]:
        chain.pop()
    ints = to_ints(p)[0]

    def negative_at(x):
        return _horner(ints, x) < 0

    def changes(x):
        signs = [v > 0 for v in (_horner(f, x) for f in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    ranges = [(start, max(start, int(cauchy_bound(p)) + 1))]
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
    # substitute a rational u / v for the first variable: the sum of
    # a_i u^i v^(n-i) over v^n, over Z for every coefficient at once
    x = Fraction(x)
    if not a:
        return ZERO
    ints = [to_ints(p) for p in a]
    m = math.lcm(*(mi for _, mi in ints))
    u, v, n = x.numerator, x.denominator, len(a) - 1
    out = [0] * max(len(p) for p in a)
    for i, (cs, mi) in enumerate(ints):
        k = m // mi * u**i * v ** (n - i)
        for j, c in enumerate(cs):
            out[j] += c * k
    return from_ints(out, m * v**n)


def b_diag(a):
    # substitute the second variable for the first
    acc = ZERO
    for i, p in enumerate(a):
        acc = add(acc, mul_xk(p, i))
    return acc
