"""sigma-sets: sigma families and set algebra on constant-endpoint pieces.

Every germ here is a constant, so the time goes to the construct and
compare path of germ and _poly and to measure's sweeps.  Piece counts run
from 10 to 4096, taking the working set from tiny to large.  Every kind
of operation gets the same share of a pass: four Cantor and four dyadic
limits, four schema files, and each set operation on sets of 10, 100,
1000 and 4096 pieces, except that union and intersect stop at 1000 (at
4096 each takes 3 to 4 seconds, more than all the rest of a pass).  The
mix per pass is fixed; the seed draws the endpoints and the schema files.
"""

from __future__ import annotations

import os
from fractions import Fraction

import reference as R
from wl_query import frac_record

CANTOR_DEPTHS = (4, 5, 6, 7)
DYADIC_DEPTHS = (10, 20, 30, 40)
SIGMA_FILE_PIECES = (1, 2, 3, 4)  # pieces in each generated schema file
SIGMA_FILE_DEPTH = 10
PIECE_COUNTS = (10, 100, 1000, 4096)
SET_OPS = {  # operation -> the piece counts it runs on
    "union": PIECE_COUNTS[:-1], "intersect": PIECE_COUNTS[:-1],
    "complement": PIECE_COUNTS, "count": PIECE_COUNTS,
}


def random_pieces(rng, n):
    """n disjoint pieces with distinct endpoints in (0,1), in order."""
    scale = 10 ** 6
    points = sorted(rng.sample(range(1, scale), 2 * n))
    return [(Fraction(points[2 * i], scale), Fraction(points[2 * i + 1], scale),
             rng.random() < 0.5, rng.random() < 0.5) for i in range(n)]


def _raw(pieces):
    return [[str(lo), str(hi), lc, hc] for lo, hi, lc, hc in pieces]


def _set_op(kind, tag, pieces):
    """One set operation on the sets named tag + "a" and tag + "b"."""
    sa, sb = pieces
    if kind == "union":
        value = _raw(R.sweep([sa, sb], any))
    elif kind == "intersect":
        value = _raw(R.sweep([sa, sb], all))
    elif kind == "complement":
        value = _raw(R.sweep([sa], lambda h: not h[0]))
    else:
        width = R.measure_of(sa)
        n_w, slack = R.RF.var(), R.RF.const(Fraction(len(sa)))
        one, wd = R.RF.const(Fraction(1)), R.RF.const(width)
        value = {"loeb": str(max(Fraction(0), min(Fraction(1), width))),
                 "lower": str((wd * n_w - slack) / (n_w + one)),
                 "upper": str((wd * n_w + slack) / (n_w + one))}
    return {"kind": kind, "a": f"{tag}a", "b": f"{tag}b"}, {"value": value}


def _endpoint(z, c, a, s):
    """Text and value function of z + c/(a*k + s)."""
    sign = "+" if c > 0 else "-"
    text = f"{z} {sign} {abs(c)}/({a}*k + {s})"
    return text, (lambda k: z + c / (a * k + s))


def sigma_schema(rng, count):
    """A monotone schema family of count pieces in disjoint zones of
    [0,1].  Returns (file text, start, mode, endpoint functions, limit)."""
    mode = rng.choice(("increasing", "decreasing"))
    start = rng.randint(1, 3)
    points = sorted(Fraction(x, 24) for x in rng.sample(range(25), 2 * count))
    zones = list(zip(points[0::2], points[1::2]))
    lines, members, limit = [f"mode: {mode}", f"start: {start}"], [], Fraction(0)
    for zlo, zhi in zones:
        gap = zhi - zlo
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        s, t = rng.randint(1, 4), rng.randint(1, 4)
        if mode == "increasing":  # lo falls to zlo, hi rises to zhi
            c = gap / 4 * (a * start + s) * Fraction(rng.randint(1, 4), 4)
            d = gap / 4 * (b * start + t) * Fraction(rng.randint(1, 4), 4)
            lo_text, lo = _endpoint(zlo, c, a, s)
            hi_text, hi = _endpoint(zhi, -d, b, t)
            limit += gap
        else:  # lo rises to zlo + m, hi falls to zhi - m
            m = gap / 4
            c = m * (a * start + s) * Fraction(rng.randint(1, 4), 4)
            d = m * (b * start + t) * Fraction(rng.randint(1, 4), 4)
            lo_text, lo = _endpoint(zlo + m, -c, a, s)
            hi_text, hi = _endpoint(zhi - m, d, b, t)
            limit += gap - 2 * m
        lc, hc = rng.random() < 0.5, rng.random() < 0.5
        lines.append(f"piece: {'[' if lc else '('}{lo_text}, {hi_text}{']' if hc else ')'}")
        members.append((lo, hi, lc, hc))
    if rng.random() < 0.5:
        lines.insert(0, "# generated schema")
    return "\n".join(lines) + "\n", start, mode, members, limit


def _sigma_file(rng, workdir, index, count, depth):
    text, start, mode, members, limit = sigma_schema(rng, count)
    path = os.path.join(workdir, f"sigma-{index}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    values = []
    for k in range(start, start + depth + 1):
        pieces = [(lo(k), hi(k), lc, hc) for lo, hi, lc, hc in members]
        values.append({"k": k, **frac_record(sum((hi - lo for lo, hi, _, _ in pieces), Fraction(0)))})
    argv = ["measure", "--sigma", path, "--depth", str(depth)]
    payload = {"command": "measure", "status": "ok", "limit": frac_record(limit), "mode": mode,
               "depth": depth, "values": values}
    if rng.random() < 0.5:
        return {"kind": "cli", "argv": ["--json"] + argv}, {"code": 0, "json": True, "payload": payload,
                                                            "partial": True}
    return {"kind": "cli", "argv": argv}, {"code": 0, "text": str(limit)}


def _cert(mode, values, limit):
    return {"value": {"limit": str(limit), "mode": mode, "values": [[k, str(v)] for k, v in values]}}


def build(rng, scale, workdir):
    ops, expected, sets = [], [], {}
    for depth in CANTOR_DEPTHS:
        depth = max(3, round(depth * min(1.0, scale * 4)))
        ops.append({"kind": "cantor", "depth": depth})
        expected.append(_cert("decreasing", [(k, Fraction(2, 3) ** k) for k in range(depth + 1)], Fraction(0)))
    for depth in DYADIC_DEPTHS:
        depth = max(3, round(depth * min(1.0, scale * 4)))
        ops.append({"kind": "dyadic", "depth": depth})
        expected.append(_cert("disjoint", [(k, 1 - Fraction(1, 2 ** (k + 1))) for k in range(depth + 1)],
                              Fraction(1)))
    for i, count in enumerate(SIGMA_FILE_PIECES):
        op, exp = _sigma_file(rng, workdir, i, count, SIGMA_FILE_DEPTH)
        ops.append(op)
        expected.append(exp)
    pairs = {}  # the two sets of each piece count
    for n in PIECE_COUNTS:
        size, tag = max(4, round(n * scale)), f"n{n}."
        a, b = random_pieces(rng, size), random_pieces(rng, size)
        sets[tag + "a"], sets[tag + "b"] = _raw(a), _raw(b)
        pairs[n] = tag, (a, b)
    for kind, counts in SET_OPS.items():
        for n in counts:
            op, exp = _set_op(kind, *pairs[n])
            ops.append(op)
            expected.append(exp)
    return ops, expected, sets
