"""Golden CLI bytes: exit code and stdout of ``hyperq`` for fixed argv.

Each case runs twice, plain and with ``--json``, through ``cli.main``.
The expected bytes live in ``tests/golden/cli.json``.  After a change
that is meant to alter output, rewrite that file with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff.  The cases that read a model or sigma file also
run in fresh interpreters under three hash seeds, since the same argv
must always produce the same bytes.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperq
from hyperq.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILE = GOLDEN_DIR / "cli.json"

# ``{golden}`` stands for GOLDEN_DIR, so the stored argv is machine-independent.
CASES = [
    # README examples (``repl`` is left out)
    ["eval", "(w^2-1)/(w+1) + 1"],
    ["shadow", "(2*w^2+3)/(w^2-w)"],
    ["classify", "2 + 5/w"],
    ["measure", "(1/4,3/4)"],
    ["measure", "[0,1/3] | (1/2,1]"],
    ["hull", "point", "q", "1 - 1/w"],
    ["hull", "dist", "q", "2 - 1/w", "1/2"],
    ["hull", "approachable", "n", "w"],
    ["hull", "limit", "k/(k+1)"],
    ["ext", "(3 + M0)*(2 + M0)"],
    # oracle runs, the default sizes among them, and file inputs
    ["oracle"],
    ["oracle", "--index-size", "2", "--carrier-size", "2", "--depth", "1"],
    ["oracle", "--model", "{golden}/toy.model"],
    ["measure", "--sigma", "{golden}/family.sigma"],
    # set-algebra edge cases: touching ends, gaps of one point, complements
    ["measure", "[0,1/2) | [1/2,1]"],
    ["measure", "(0,1/2) | (1/2,1)"],
    ["measure", "{1/3} | [1/3,1/2]"],
    ["measure", "~[1/4,3/4]"],
    ["measure", "~(0,1)"],
    ["measure", "[0,1/2] & [1/2,1]"],
    ["measure", "[0,1/3] & (1/3,1]"],
    # external numbers at deep, shallow and positive neutrix grades
    ["ext", "1/(w+1) + N(-12)"],
    ["ext", "(w^3+2)/(w^2-w+5) + N(-40)"],
    ["ext", "(w^5+1)/(w+3) + N(2)"],
    # hull distances beyond the rationals, and limits that pass and fail
    ["hull", "dist", "v:3", "1-1/w, 2, w/(w+1)", "1, 2+1/w, 1/2"],
    ["hull", "dist", "n", "w^2", "w^2+w"],
    ["hull", "approachable", "v:2", "1/w, 3"],
    ["hull", "limit", "1/(k+1) + w/(w+1)"],
    ["hull", "limit", "1/(k+1)", "--slope", "0", "--intercept", "0"],
    # oracle sizes and depths outside the formula pool are refused
    ["oracle", "--index-size", "1", "--carrier-size", "2", "--depth", "7"],
    ["oracle", "--depth", "0"],
    ["oracle", "--depth", "-3"],
    ["oracle", "--index-size", "0"],
    ["oracle", "--carrier-size", "0"],
    # one case per error exit code
    ["frobnicate", "1"],
    ["eval", "1/0"],
    ["hull", "point", "q", "w"],
    # the evaluators' refusals: neutrix division, powers and grades,
    # shadows outside their domain, and set atoms outside the algebra
    ["ext", "M0/2"],
    ["ext", "N(2000)/2"],
    ["ext", "N(2000)*shadow(M0)"],
    ["ext", "shadow(w) + M0"],
    ["ext", "(1+M0)^2"],
    ["ext", "-(w + M0) - 2*G0"],
    ["hull", "limit", "shadow(k)"],
    ["measure", "~monad(1/2)"],
    # digits are ASCII only, and a model file takes no sweep sizes
    ["eval", "\u0663+w"],
    ["eval", "\u00b2"],
    ["oracle", "--model", "{golden}/toy.model", "--index-size", "100", "--carrier-size", "0"],
    # model and sigma files with a missing, non-integer or repeated value,
    # and a model whose unary relation leaves the carrier
    ["oracle", "--model", "{golden}/no_index.model"],
    ["oracle", "--model", "{golden}/no_w.model"],
    ["oracle", "--model", "{golden}/bad_index.model"],
    ["oracle", "--model", "{golden}/repeated_atom.model"],
    ["oracle", "--model", "{golden}/repeated_carrier.model"],
    ["oracle", "--model", "{golden}/repeated_index.model"],
    ["oracle", "--model", "{golden}/repeated_w.model"],
    ["oracle", "--model", "{golden}/unary_outside.model"],
    ["measure", "--sigma", "{golden}/bad_start.sigma"],
    ["measure", "--sigma", "{golden}/bad_depth.sigma"],
    # several membership pairs leave the carrier: the first one is named
    ["oracle", "--model", "{golden}/member_outside.model"],
    # integer flags take an optional - and ASCII digits, nothing else
    ["oracle", "--depth", "abc"],
    ["oracle", "--depth", ""],
    ["oracle", "--index-size", "\u0663"],
    ["oracle", "--carrier-size", "2.0"],
    ["measure", "--sigma", "{golden}/family.sigma", "--depth", "x"],
    ["hull", "limit", "k/(k+1)", "--slope", "x"],
    ["hull", "limit", "k/(k+1)", "--intercept", " 1"],
    ["hull", "limit", "k/(k+1)", "--start", "+1"],
    ["hull", "limit", "k/(k+1)", "--check-depth", "1_0"],
    ["hull", "point", "v:abc", "1"],
    # canonical forms with non-integer coefficients, or from non-monic input
    ["eval", "1/(2*w+1)"],
    ["eval", "(w^2+1)/(3*w-2)"],
    ["eval", "(2*w+2)/(4*w+4)"],
    ["ext", "1/(3*w+1) + N(-3)"],
    ["shadow", "(w+1)/(3*w)"],
    ["hull", "point", "n", "w*(w+1)/2"],
    ["hull", "point", "n", "w/2"],
    ["hull", "limit", "k/(2*k+1) + 1/(3*w)"],
    # sigma schemas: overlapping pieces whose limit is not their summed
    # width, disjoint schemas (the second one's first values are
    # geometric), and a piece that leaves [0,1] only beyond the depth
    ["measure", "--sigma", "{golden}/overlap.sigma"],
    ["measure", "--sigma", "{golden}/overlap.sigma", "--depth", "40"],
    ["measure", "--sigma", "{golden}/disjoint.sigma"],
    ["measure", "--sigma", "{golden}/geometric.sigma"],
    ["measure", "--sigma", "{golden}/leaves.sigma"],
    # an end that turns past the depth: the mode is proved for every k,
    # so these are refused, naming the end and the k at which it turns
    ["measure", "--sigma", "{golden}/late_fall.sigma"],
    ["measure", "--sigma", "{golden}/late_rise.sigma"],
    # an end with a pole past the depth: a monotone mode, and a disjoint
    # schema whose pole is met on its step to the next member
    ["measure", "--sigma", "{golden}/pole.sigma"],
    ["measure", "--sigma", "{golden}/disjoint_pole.sigma"],
    # a piece outside [0,1] is printed as an interval: a set's piece, and
    # a sigma member's piece at k = 1
    ["measure", "[0, 2]"],
    ["measure", "--sigma", "{golden}/member_leaves.sigma"],
    # the key-value reader: a repeated once-only key (the first fault in
    # the file is named), comments anywhere on a line, unknown keys, a
    # piece that is not one interval and a unary line with no name
    ["measure", "--sigma", "{golden}/repeated_mode.sigma"],
    ["measure", "--sigma", "{golden}/repeated_start.sigma"],
    ["measure", "--sigma", "{golden}/repeated_depth.sigma"],
    ["measure", "--sigma", "{golden}/commented.sigma"],
    ["measure", "--sigma", "{golden}/unknown_key.sigma"],
    ["measure", "--sigma", "{golden}/two_pieces.sigma"],
    ["oracle", "--model", "{golden}/unknown_key.model"],
    ["oracle", "--model", "{golden}/unnamed_unary.model"],
    # an oversize exponent is refused while parsing, before the neutrix
    ["ext", "N(-2)^1001"],
]


def _run(case, as_json):
    argv = (["--json"] if as_json else []) + [
        a.replace("{golden}", str(GOLDEN_DIR)) for a in case
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"exit_code": code, "stdout": out.getvalue()}


def _key(case, as_json):
    return ("--json " if as_json else "") + json.dumps(case)


@pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
@pytest.mark.parametrize("case", CASES, ids=[" ".join(c) for c in CASES])
def test_cli_bytes_match_golden(case, as_json):
    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    assert _run(case, as_json) == golden[_key(case, as_json)]


def test_comments_leave_a_sigma_file_unchanged():
    # commented.sigma is family.sigma with comment lines and inline comments
    for as_json in (False, True):
        commented = _run(["measure", "--sigma", "{golden}/commented.sigma"], as_json)
        assert commented == _run(["measure", "--sigma", "{golden}/family.sigma"], as_json)


FILE_CASES = [c for c in CASES if "--model" in c or "--sigma" in c]

# Runs the cases read from stdin through _run and prints the results.
_BATCH = """
import json, sys
from test_golden_cli import _key, _run
cases = json.load(sys.stdin)
json.dump({_key(c, j): _run(c, j) for c in cases for j in (False, True)}, sys.stdout)
"""


@pytest.fixture(scope="module", params=["0", "1", "2"], ids=lambda s: f"PYTHONHASHSEED={s}")
def fresh_run(request):
    """The file cases run in one fresh interpreter under a hash seed."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(hyperq.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=request.param)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, str(Path(__file__).parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _BATCH], input=json.dumps(FILE_CASES),
                          capture_output=True, text=True, timeout=300, env=env, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
@pytest.mark.parametrize("case", FILE_CASES, ids=[" ".join(c) for c in FILE_CASES])
def test_file_cases_match_golden_under_hash_seeds(case, as_json, fresh_run):
    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    assert fresh_run[_key(case, as_json)] == golden[_key(case, as_json)]


def _regenerate():
    golden = {
        _key(case, as_json): _run(case, as_json)
        for case in CASES
        for as_json in (False, True)
    }
    GOLDEN_FILE.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    _regenerate()
