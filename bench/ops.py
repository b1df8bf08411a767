"""Turn operation specs into calls on hyperq's public API.

Each spec is plain JSON.  ``prepare`` does the untimed part (parsing
inputs, building operands) and returns ``(call, observe)``: ``call`` is
the timed operation, ``observe`` turns its result into plain JSON that
the reference checker compares.  Only ``cli.main``/``cli.run_command``
and non-underscore names of the modules are used.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction

from hyperq import cli, coding, extnum, germ, measure
from hyperq.germ import Germ


def _main(argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    return call, lambda r: {"code": r[0], "out": r[1]}


def _pieces_of(x):
    return [[str(p.lo.constant_value()), str(p.hi.constant_value()), p.lo_closed, p.hi_closed]
            for p in x.pieces]


def _cert(c):
    return {"limit": str(c.limit), "mode": c.mode,
            "values": [[k, str(v)] for k, v in c.values]}


def _piece_list(raw):
    return [measure.Piece(Germ.constant(Fraction(lo)), Germ.constant(Fraction(hi)), lc, hc)
            for lo, hi, lc, hc in raw]


def prepare(spec, sets, built):
    """``sets`` holds the raw piece lists a workload names; ``built``
    caches the InternalSets made from them (untimed)."""
    kind = spec["kind"]
    if kind == "cli":
        return _main(spec["argv"])
    if kind in ("add", "sub", "mul", "div", "compare"):
        a, b = germ.parse_germ(spec["a"]), germ.parse_germ(spec["b"])
        if kind == "compare":
            return (lambda: germ.compare(a, b)), (lambda r: r)
        return (lambda: germ.arith(a, b, kind)), str
    if kind == "threshold":
        a = germ.parse_germ(spec["a"])
        return (lambda: germ.eventually_threshold(a)), (lambda r: r)
    if kind == "ext":
        text = spec["text"]
        return (lambda: extnum.parse_ext(text)), str
    if kind == "countable":
        fam = coding.CodedFamily(germ.parse_germ_in_k(spec["lo"]), germ.parse_germ_in_k(spec["hi"]),
                                 spec["lo_closed"], spec["hi_closed"], spec["start"])
        probes = [Germ.constant(Fraction(p)) for p in spec["probes"]]
        witness = Germ.constant(Fraction(spec["witness"])) if spec.get("witness") else None

        def call():
            result = coding.countable_ops(fam, spec["op"])
            found = coding.union_witness(result, witness) if witness is not None else None
            return result, found

        def observe(r):
            result, found = r
            return {"members": [coding.membership(result.set, p) for p in probes], "witness": found}

        return call, observe
    if kind == "cantor":
        depth = spec["depth"]
        return (lambda: measure.sigma_limit(measure.cantor_family(), depth)), _cert
    if kind == "dyadic":
        depth = spec["depth"]
        return (lambda: measure.sigma_limit(measure.dyadic_family(), depth)), _cert
    if kind in ("union", "intersect", "complement", "count"):
        def operand(name):
            if name not in built:
                built[name] = measure.InternalSet(_piece_list(sets[name]))
            return built[name]

        a = operand(spec["a"])
        if kind == "complement":
            return (lambda: a.complement()), _pieces_of
        if kind == "count":
            return (lambda: measure.counting_measure(a)), (
                lambda m: {"loeb": str(m.loeb), "lower": str(m.lower), "upper": str(m.upper)})
        b = operand(spec["b"])
        return (lambda: getattr(a, kind)(b)), _pieces_of
    raise ValueError(f"unknown operation kind {kind!r}")
