"""query-mix: a stream of small commands through the CLI entry point.

Fixed per-call costs dominate here: parsing, dispatch, building small
germs and formatting.  No measured traffic says how often each command
is used, so every kind of operation gets the same share of a pass, and
every other operation asks for ``--json``.  The mix per pass is fixed;
the seed draws every expression, coefficient and malformed input.
"""

from __future__ import annotations

from fractions import Fraction

import reference as R
from exprgen import Draw, germ_expr, limited_expr, natural_expr, rand_q

PER_KIND = 100  # operations of each kind per pass


def frac_record(q: Fraction) -> dict:
    """A rational as the CLI's JSON records write it."""
    return {"num": q.numerator, "den": q.denominator}


def ok(argv, text, payload):
    return {"kind": "cli", "argv": argv}, {"code": 0, "text": text, "payload": payload}


def err(argv, code):
    return {"kind": "cli", "argv": argv}, {"code": code}


def _eval(d):
    text, g = germ_expr(d)
    s = str(g)
    return ok(["eval", text], s, {"command": "eval", "status": "ok", "value": s})


def _shadow(d):
    text, g = germ_expr(d)
    sh = R.shadow(g)
    value = {"inf": sh[0]} if isinstance(sh, str) else frac_record(sh)
    return ok(["shadow", text], str(sh), {"command": "shadow", "status": "ok", "value": value})


def _classify(d):
    text, g = germ_expr(d)
    tag = R.classify(g)
    return ok(["classify", text], tag, {"command": "classify", "status": "ok", "value": tag})


def _interval(rng):
    a, b = sorted(Fraction(rng.randint(0, 12), 12) for _ in range(2))
    lc, hc = rng.random() < 0.6, rng.random() < 0.6
    if rng.random() < 0.15:
        return f"{{{a}}}", (a, a, True, True)
    return f"{'[' if lc else '('}{a},{b}{']' if hc else ')'}", (a, b, lc, hc)


def _set_expr(rng, depth=0):
    """A set expression over [0,1] and its membership test."""
    if depth >= 2 or rng.random() < 0.35:
        text, piece = _interval(rng)
        return text, (lambda x, p=piece: R.in_piece(x, p)), [piece[0], piece[1]]
    op = rng.choice("|&~")
    lt, lf, lp = _set_expr(rng, depth + 1)
    if op == "~":
        return f"~({lt})", (lambda x: 0 <= x <= 1 and not lf(x)), lp
    rt, rfn, rp = _set_expr(rng, depth + 1)
    if op == "|":
        return f"({lt}) | ({rt})", (lambda x: lf(x) or rfn(x)), lp + rp
    return f"({lt}) & ({rt})", (lambda x: lf(x) and rfn(x)), lp + rp


def _measure(d):
    text, contains, points = _set_expr(d.rng)
    pieces = R.normalize(contains, points)
    m = R.measure_of(pieces)
    return ok(["measure", text], str(m), {"command": "measure", "status": "ok",
                                          "value": frac_record(m), "set": R.set_text(pieces)})


def _hull_point(d):
    struct = d.pick("struct", ("q", "n", "v:3"))
    if struct == "q":
        text, g = limited_expr(d)
        s = str(R.shadow(g))
    elif struct == "n":
        text, g = natural_expr(d)
        s = str(g)
    else:
        items = [limited_expr(d) for _ in range(3)]
        text = ",".join(t for t, _ in items)
        s = "(" + ", ".join(str(R.shadow(g)) for _, g in items) + ")"
    return ok(["hull", "point", struct, text], s,
              {"command": "hull", "status": "ok", "subcommand": "point", "value": s})


def _hull_dist(d):
    struct = d.pick("struct", ("q", "n", "v:3"))
    if struct == "q":
        (a, ga), (b, gb) = limited_expr(d), limited_expr(d)
        d = abs(R.shadow(ga) - R.shadow(gb))
    elif struct == "n":
        (a, ga) = natural_expr(d)
        b, gb = (a, ga) if d.pick("same", (True, False, False)) else natural_expr(d)
        d = Fraction(0) if str(ga) == str(gb) else Fraction(1)
    else:
        xs = [limited_expr(d) for _ in range(3)]
        ys = [limited_expr(d) for _ in range(3)]
        a, b = ",".join(t for t, _ in xs), ",".join(t for t, _ in ys)
        d = max(abs(R.shadow(x) - R.shadow(y)) for (_, x), (_, y) in zip(xs, ys))
    return ok(["hull", "dist", struct, a, b], str(d),
              {"command": "hull", "status": "ok", "subcommand": "dist", "value": frac_record(d)})


def _hull_approachable(d):
    struct = d.pick("struct", ("q", "n", "v:3"))
    if struct == "q":
        text, g = germ_expr(d)
        value = R.is_limited(g)
    elif struct == "n":
        text, g = natural_expr(d)
        value = g.is_constant() or g.is_zero()
    else:
        items = [germ_expr(d) for _ in range(3)]
        text = ",".join(t for t, _ in items)
        value = all(R.is_limited(g) for _, g in items)
    return ok(["hull", "approachable", struct, text], "true" if value else "false",
              {"command": "hull", "status": "ok", "subcommand": "approachable", "value": value})


def hull_limit_case(family_text, family):
    """Expected outcome of ``hull limit`` with the default modulus
    (slope 1, intercept 1, start 0, check depth 8): the diagonal's
    shadow, unless a sampled member breaks the declared tolerance.
    ``family(k)`` gives the member at k as an RF in w; ``family(None)``
    gives the diagonal."""
    limit = R.shadow(family(None))
    argv = ["hull", "limit", family_text]
    if isinstance(limit, str):
        return err(argv, 4)
    cache = {}

    def member(k):
        if k not in cache:
            cache[k] = R.shadow(family(k))
        return cache[k]

    for j in range(9):
        k0, tol = j + 1, Fraction(1, j + 1)
        samples = [member(k) for k in (k0, k0 + 1, k0 + 5)]
        if any(isinstance(s, str) for s in samples):
            return err(argv, 4)
        if any(abs(a - b) >= tol for a in samples for b in samples):
            return err(argv, 4)
        if any(abs(limit - a) > tol for a in samples):
            return err(argv, 4)
    return ok(argv, str(limit), {"command": "hull", "status": "ok", "subcommand": "limit", "value": str(limit)})


def _hull_limit(d):
    rng = d.rng
    if d.pick("modulus holds", (True, False)):
        c = Fraction(rng.randint(-3, 3), 3)
    else:  # members move too far between the sampled indices
        c = Fraction(rng.randint(7, 12), 2)
    base = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    s = rng.randint(0, 4)
    e = rand_q(rng, 3)
    text = f"{base} + {c}/(k + {s}) + {e}/w"

    def family(k):
        w = R.RF.var()
        kk = w if k is None else R.RF.const(Fraction(k))
        return R.RF.const(base) + R.RF.const(c) / (kk + R.RF.const(Fraction(s))) + R.RF.const(e) / w

    return hull_limit_case(text, family)


def ext_case(center, grade):
    """``center + N(grade)`` after Minkowski canonicalisation."""
    kept = R.laurent_truncation(center, grade)
    label = R.neutrix_label(grade)
    s = label if kept.is_zero() else f"{kept} + {label}"
    return s, {"command": "ext", "status": "ok", "center": str(kept), "neutrix": label, "value": s}


def _ext(d):
    text, g = germ_expr(d)
    grade = d.pick("grade", range(-4, 2))
    form = d.pick("ext form", range(3))
    if form == 0:
        lit = {-1: "M0", 0: "G0"}.get(grade, f"N({grade})") if d.rng.random() < 0.5 else f"N({grade})"
        src = f"{text} + {lit}"
    elif form == 1:
        src = f"{text} - N({grade})"
    else:
        if g.is_zero() or grade >= 0:
            src = f"{text} + N({grade})"
        else:  # c*(1 + N(g)) = c + N(g + valuation(c))
            src = f"({text})*(1 + N({grade}))"
            grade = grade + g.valuation()
    s, payload = ext_case(g, grade)
    return ok(["ext", src], s, payload)


def _malformed(d):
    text, _ = germ_expr(d)
    cases = (
        (["evl", text], 2), (["eval"], 2), (["eval", text, text], 2), ([], 2),
        (["hull", "spin", "q", "w"], 2), (["hull", "point", "x", text], 2),
        (["hull", "point", "q"], 2), (["measure", "--depth"], 2),
        (["eval", text + " +"], 3), (["eval", "2*/w"], 3), (["shadow", text + " $"], 3),
        (["eval", "(" + text], 3), (["classify", "x + " + text], 3), (["eval", "w/(1/0)"], 3),
        (["eval", "w^w"], 3), (["eval", "w^1.5"], 3), (["measure", "[0,1/2"], 3),
        (["eval", f"({text})/(w - w)"], 4), (["shadow", "1/(w^2 - w*w)"], 4),
        (["hull", "point", "q", "w^2 + 1"], 4), (["hull", "point", "n", "1/2"], 4),
        (["hull", "point", "v:3", "1,2"], 4), (["hull", "point", "v:x", "1"], 4),
        (["measure", "[-1/2,1/2]"], 4), (["ext", "N(-2)/w"], 4), (["measure", "[0,3/2] | [0,1]"], 4),
    )
    argv, code = cases[d.pick("malformed", range(len(cases)))]
    return err(argv, code)


BUILDERS = {
    "eval": _eval, "shadow": _shadow, "classify": _classify, "measure": _measure,
    "hull_point": _hull_point, "hull_dist": _hull_dist, "hull_approachable": _hull_approachable,
    "hull_limit": _hull_limit, "ext": _ext, "malformed": _malformed,
}


def build(rng, scale, workdir):
    d = Draw(rng)
    ops, expected = [], []
    for kind, build_one in BUILDERS.items():
        for i in range(max(2, round(PER_KIND * scale))):
            op, exp = build_one(d)
            if i % 2 == 0:
                op["argv"] = ["--json"] + op["argv"]
                exp["json"] = True
            ops.append(op)
            expected.append(exp)
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [ops[i] for i in order], [expected[i] for i in order], {}
