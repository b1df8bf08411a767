"""Golden CLI bytes: exit code and stdout of ``hyperq`` for fixed argv.

Each case runs twice, plain and with ``--json``, through ``cli.main``.
The expected bytes live in ``tests/golden/cli.json``.  After a change
that is meant to alter output, rewrite that file with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

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
