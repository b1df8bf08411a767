"""Command-line interface.

Commands: eval, shadow, classify, measure, hull, ext, oracle, repl.
``--json`` switches any command to a structured record with exact
rationals as numerator/denominator pairs.  Exit codes: 0 success,
2 unknown command or usage, 3 expression parse error, 4 domain error.
Output is deterministic: the same argv always produces the same bytes.
"""

from __future__ import annotations

import json
import shlex
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import exprlang, extnum, finmodel, germ, hull, measure
from .errors import EngineError, read_int
from .exprlang import ParseError

OK, USAGE, PARSE, DOMAIN = 0, 2, 3, 4

_USAGE = """usage: hyperq [--json] COMMAND ...

commands:
  eval EXPR                  canonical form of a germ expression
  shadow EXPR                exact standard part (or +inf/-inf)
  classify EXPR              classification tag of a germ
  measure EXPR               measure of an interval-algebra set
  measure --sigma FILE [--depth D]   sigma-family limit with certificate
  hull point STRUCT EXPR     canonical hull point (STRUCT: q, n, v:D)
  hull dist STRUCT A B       hull distance
  hull approachable STRUCT EXPR
  hull limit FAMILY [--slope S --intercept B --start K --check-depth J]
  ext EXPR                   canonical external number
  oracle [--index-size K --carrier-size C --depth D] [--model FILE]
  repl                       interactive read-eval loop
"""


@dataclass
class CommandResult:
    status: str
    text: str
    payload: dict
    exit_code: int = 0


def _ok(command: str, text: str, **payload) -> CommandResult:
    record = {"command": command, "status": "ok", **payload}
    return CommandResult("ok", text, record, OK)


def _err(command: str, message: str, code: int) -> CommandResult:
    record = {"command": command, "status": "error", "error": message, "code": code}
    return CommandResult("error", f"error: {message}", record, code)


def _frac(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _shadow_payload(sh):
    if isinstance(sh, germ.InfiniteShadow):
        return {"inf": "+" if sh.sign > 0 else "-"}
    return _frac(sh)


def _take_flag(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 >= len(args):
            raise _Usage(f"{name} needs a value")
        value = args[i + 1]
        del args[i : i + 2]
        return value
    return None


def _int_flag(args, name, default=None):
    """An integer flag's value, ``default`` when the flag is absent."""
    value = _take_flag(args, name)
    return default if value is None else read_int(value, name, _Usage)


class _Usage(Exception):
    pass


def run_command(argv) -> CommandResult:
    args = list(argv)
    as_json = "--json" in args
    if as_json:
        args.remove("--json")
    if not args:
        return _err("", "missing command\n" + _USAGE, USAGE)
    command, rest = args[0], args[1:]
    try:
        handler = _HANDLERS.get(command)
        if handler is None:
            return _err(command, f"unknown command {command!r}", USAGE)
        return handler(rest)
    except _Usage as exc:
        return _err(command, str(exc), USAGE)
    except ParseError as exc:
        return _err(command, str(exc), PARSE)
    except (EngineError, ZeroDivisionError, ValueError, OSError) as exc:
        # OSError: a --sigma or --model file that is missing or unreadable
        return _err(command, str(exc), DOMAIN)


def _one_arg(rest, what):
    if len(rest) != 1:
        raise _Usage(f"expected exactly one {what}")
    return rest[0]


def _cmd_eval(rest):
    g = germ.parse_germ(_one_arg(rest, "germ expression"))
    return _ok("eval", str(g), value=str(g))


def _cmd_shadow(rest):
    sh = germ.shadow(germ.parse_germ(_one_arg(rest, "germ expression")))
    return _ok("shadow", str(sh), value=_shadow_payload(sh))


def _cmd_classify(rest):
    tag = germ.classify(germ.parse_germ(_one_arg(rest, "germ expression"))).value
    return _ok("classify", tag, value=tag)


def _cmd_measure(rest):
    rest = list(rest)
    sigma_file = _take_flag(rest, "--sigma")
    depth = _int_flag(rest, "--depth")
    if sigma_file is not None:
        if rest:
            raise _Usage(f"unexpected arguments: {' '.join(rest)}")
        with open(sigma_file, "r", encoding="utf-8") as handle:
            family, file_depth = measure.parse_sigma_file(handle.read())
        if depth is None:
            depth = 12 if file_depth is None else file_depth
        cert = measure.sigma_limit(family, depth)
        return _ok(
            "measure",
            str(cert.limit),
            limit=_frac(cert.limit),
            mode=cert.mode,
            depth=depth,
            derivation=cert.derivation,
            values=[{"k": k, **_frac(v)} for k, v in cert.values],
        )
    if depth is not None:
        raise _Usage("--depth applies only to --sigma")
    expr = _one_arg(rest, "set expression")
    node = exprlang.parse(expr, "set")
    x = measure.internal_set_from_ast(node)
    value = measure.loeb_measure(x)
    return _ok("measure", str(value), value=_frac(value), set=str(x))


_STRUCTS = {"q": hull.RATIONALS, "rationals": hull.RATIONALS,
            "n": hull.NATURALS, "naturals": hull.NATURALS}


def _structure(name: str):
    if name in _STRUCTS:
        return _STRUCTS[name]
    if name.startswith(("v:", "vector:")):
        return hull.vector(read_int(name.split(":", 1)[1], "the D of v:D"))
    raise _Usage(f"unknown structure {name!r}; use q, n or v:D")


def _point_arg(structure, text):
    if structure.kind == "vector":
        items = exprlang.parse_items(text, "germ")
        return tuple(exprlang.to_germ(a) for a in items)
    return germ.parse_germ(text)


def _cmd_hull(rest):
    if not rest:
        raise _Usage("hull needs a subcommand: point, dist, approachable, limit")
    sub, rest = rest[0], list(rest[1:])
    if sub == "point":
        if len(rest) != 2:
            raise _Usage("hull point STRUCT EXPR")
        s = _structure(rest[0])
        p = hull.hull_point(s, _point_arg(s, rest[1]))
        return _ok("hull", str(p), subcommand="point", value=str(p))
    if sub == "dist":
        if len(rest) != 3:
            raise _Usage("hull dist STRUCT A B")
        s = _structure(rest[0])
        d = hull.hull_dist(
            hull.hull_point(s, _point_arg(s, rest[1])),
            hull.hull_point(s, _point_arg(s, rest[2])),
        )
        return _ok("hull", str(d), subcommand="dist", value=_frac(d))
    if sub == "approachable":
        if len(rest) != 2:
            raise _Usage("hull approachable STRUCT EXPR")
        s = _structure(rest[0])
        result = hull.approachable(s, _point_arg(s, rest[1]))
        return _ok("hull", "true" if result else "false",
                   subcommand="approachable", value=result)
    if sub == "limit":
        modulus = hull.Modulus(_int_flag(rest, "--slope", 1), _int_flag(rest, "--intercept", 1))
        start = _int_flag(rest, "--start", 0)
        check = _int_flag(rest, "--check-depth", 8)
        family = germ.parse_family(_one_arg(rest, "family expression"))
        seq = hull.HullSequence(hull.RATIONALS, family, modulus, start=start)
        p = hull.hull_limit(seq, check_depth=check)
        return _ok("hull", str(p), subcommand="limit", value=str(p))
    raise _Usage(f"unknown hull subcommand {sub!r}")


def _cmd_ext(rest):
    x = extnum.parse_ext(_one_arg(rest, "external-number expression"))
    value = str(x)
    return _ok(
        "ext",
        value,
        center=str(x.center),
        neutrix=x.neutrix.label(),
        value=value,
    )


def _cmd_oracle(rest):
    rest = list(rest)
    model_file = _take_flag(rest, "--model")
    sizes = {flag: _int_flag(rest, flag) for flag in ("--index-size", "--carrier-size")}
    depth = _int_flag(rest, "--depth", 2)
    if rest:
        raise _Usage(f"unexpected arguments: {' '.join(rest)}")
    if model_file is not None:
        for flag, value in sizes.items():
            if value is not None:
                raise _Usage(f"{flag} does not apply to --model: the model file sets the sizes")
        with open(model_file, "r", encoding="utf-8") as handle:
            base, index = finmodel.parse_model(handle.read())
        report = finmodel.model_sweep(base, index, depth)
        mismatches = len(report.mismatches)
        counts = {"checks": report.checks, "mismatches": mismatches}
        text = (f"model: {len(base.carrier)} elements, index {len(index.elements)}, "
                f"{report.checks} checks, {mismatches} mismatches: ")
    else:
        index_size, carrier_size = (3 if value is None else value for value in sizes.values())
        sweeps = {"los": finmodel.los_sweep(index_size, carrier_size, depth),
                  "psi": finmodel.psi_sweep(index_size, carrier_size)}
        mismatches = sum(len(r.mismatches) for r in sweeps.values())
        counts = {name: {"instances": r.instances, "checks": r.checks,
                         "mismatches": len(r.mismatches)} for name, r in sweeps.items()}
        text = "".join(f"{name}: {c['instances']} instances, {c['checks']} checks, "
                       f"{c['mismatches']} mismatches\n" for name, c in counts.items())
    if not mismatches:
        return _ok("oracle", text + "PASS", passed=True, **counts)
    result = _err("oracle", f"oracle found {mismatches} mismatches", DOMAIN)
    result.text += f"\n{text}FAIL"
    result.payload.update(passed=False, **counts)
    return result


_REPL_COMMANDS = ("eval", "shadow", "classify", "measure", "hull", "ext", "oracle")


def _cmd_repl(rest):
    if rest:
        raise _Usage("repl takes no arguments")
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        if line in ("exit", "quit"):
            break
        try:
            words = shlex.split(line)
        except ValueError as exc:
            print(f"error: {exc}")
            continue
        if words[0] not in _REPL_COMMANDS:
            words = ["eval", line]
        result = run_command(words)
        print(result.text)
    return _ok("repl", "")


_HANDLERS = {
    "eval": _cmd_eval,
    "shadow": _cmd_shadow,
    "classify": _cmd_classify,
    "measure": _cmd_measure,
    "hull": _cmd_hull,
    "ext": _cmd_ext,
    "oracle": _cmd_oracle,
    "repl": _cmd_repl,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    as_json = "--json" in argv
    result = run_command(argv)
    if as_json:
        print(json.dumps(result.payload, sort_keys=True))
    elif result.text:
        print(result.text)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
