"""Seeded germ expressions, each paired with its reference value.

Every generator returns ``(text, RF)``: the text in hyperq's expression
grammar and the same function built independently with sympy.
"""

from __future__ import annotations

from fractions import Fraction

from reference import RF


class Draw:
    """Seeded choices dealt in shuffled rounds: over a round every item of
    a list comes up once, so the mix of a pass is fixed and only its
    order and contents depend on the seed."""

    def __init__(self, rng):
        self.rng = rng
        self._decks = {}

    def pick(self, name, items):
        deck = self._decks.get(name)
        if not deck:
            deck = self._decks[name] = list(items)
            self.rng.shuffle(deck)
        return deck.pop()


def rand_q(rng, span=5, nonzero=False) -> Fraction:
    """A small rational: numerator in [-span, span], denominator up to
    span - 1, mostly 1."""
    dens = (1, 1, 1) + tuple(range(2, span))
    while True:
        c = Fraction(rng.randint(-span, span), rng.choice(dens))
        if c or not nonzero:
            return c


def rand_coeffs(rng, degree, span=5):
    """Coefficients, lowest degree first, with a nonzero leading one."""
    return [rand_q(rng, span) for _ in range(degree)] + [rand_q(rng, span, nonzero=True)]


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_text(coeffs, var="w", decimal=False) -> str:
    """Terms in descending degree; zero terms are skipped."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        lit = _decimal(mag) if decimal else str(mag)
        base = "" if e == 0 else (var if e == 1 else f"{var}^{e}")
        term = lit if not base else (base if mag == 1 else f"{lit}*{base}")
        parts.append((sign, term))
    if not parts:
        return "0"
    sign, term = parts[0]
    out = ("-" if sign == "-" else "") + term
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out


def _decimal(c: Fraction) -> str:
    """A terminating decimal for c when its denominator allows one."""
    den = c.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return str(c)
    places = max(twos, fives)
    scaled = c.numerator * 10 ** places // c.denominator
    if places == 0:
        return str(scaled)
    digits = str(scaled).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def ratio(rng, max_deg=4, shared=True):
    """(P*S)/(Q*S) expanded; S is a common factor that must cancel."""
    s_deg = rng.randint(1, 2) if shared else 0
    s = rand_coeffs(rng, s_deg) if s_deg else [Fraction(1)]
    p = rand_coeffs(rng, rng.randint(0, max_deg - s_deg))
    qd = rand_coeffs(rng, rng.randint(0, max_deg - s_deg))
    num, den = poly_mul(p, s), poly_mul(qd, s)
    text = f"({poly_text(num)})/({poly_text(den)})"
    return text, RF.poly(num) / RF.poly(den)


def germ_expr(d: Draw):
    """A germ expression with numerator and denominator degree <= 4."""
    rng = d.rng
    form = d.pick("form", range(7))
    if form == 0:
        return ratio(rng, shared=True)
    if form == 1:
        return ratio(rng, shared=False)
    if form == 2:  # product form with a factor shared above and below
        a, b, c = (rand_coeffs(rng, rng.randint(1, 2)) for _ in range(3))
        text = f"({poly_text(a)})*({poly_text(b)})/(({poly_text(a)})*({poly_text(c)}))"
        return text, RF.poly(b) / RF.poly(c)
    if form == 3:  # sum of two fractions
        a, b = rand_coeffs(rng, rng.randint(0, 1)), rand_coeffs(rng, rng.randint(1, 2))
        c, d = rand_coeffs(rng, rng.randint(0, 1)), rand_coeffs(rng, rng.randint(1, 2))
        op = rng.choice("+-")
        text = f"({poly_text(a)})/({poly_text(b)}) {op} ({poly_text(c)})/({poly_text(d)})"
        x, y = RF.poly(a) / RF.poly(b), RF.poly(c) / RF.poly(d)
        return text, (x + y if op == "+" else x - y)
    if form == 4:  # powers, including a negative exponent
        a, n = rand_coeffs(rng, 1), rng.choice((2, 3, -1, -2))
        b = rand_coeffs(rng, rng.randint(0, 1))
        text = f"({poly_text(a)})^{n}*({poly_text(b)})"
        return text, (RF.poly(a) ** n) * RF.poly(b)
    if form == 5:  # decimal literals, wrapped in redundant parentheses
        a = [Fraction(rng.randint(-40, 40), rng.choice((1, 2, 4, 5, 10))) for _ in range(rng.randint(1, 4))]
        a.append(Fraction(rng.randint(1, 40), rng.choice((1, 2, 4, 8))))
        depth = rng.randint(1, 6)
        text = "(" * depth + poly_text(a, decimal=True) + ")" * depth
        return text, RF.poly(a)
    # unary minus of a quotient of polynomials
    a, b = rand_coeffs(rng, rng.randint(0, 3)), rand_coeffs(rng, rng.randint(1, 3))
    return f"-(({poly_text(a)})/({poly_text(b)}))", -(RF.poly(a) / RF.poly(b))


def limited_expr(d: Draw):
    """A germ expression with valuation <= 0."""
    while True:
        text, g = germ_expr(d)
        if g.valuation() is None or g.valuation() <= 0:
            return text, g


def natural_expr(d: Draw):
    """An integer-valued polynomial with positive leading coefficient."""
    rng = d.rng
    form = d.pick("natural", range(3))
    if form == 0:
        c = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 3))] + [Fraction(rng.randint(1, 4))]
        return poly_text(c), RF.poly(c)
    if form == 1:  # binomial-type: w*(w+a)/2, integer valued without integer coefficients
        a = rng.choice((1, 3, 5, -1))
        return f"w*(w + {a})/2" if a > 0 else f"w*(w - {-a})/2", RF.poly([Fraction(0), Fraction(a, 2), Fraction(1, 2)])
    n = rng.randint(0, 9)
    return str(n), RF.const(Fraction(n))
