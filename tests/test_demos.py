"""Golden demo output: every demo script runs to completion and prints
exactly the text stored in ``tests/golden/demos/<name>.txt``.

After a change that is meant to alter a demo's output, rewrite those
files with

    PYTHONPATH=src python tests/test_demos.py

and review the diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperq

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(hyperq.__file__)))
GOLDEN_DIR = Path(__file__).parent / "golden" / "demos"

NAMES = [
    "01_germ_arithmetic.py",
    "02_expression_language.py",
    "03_finite_ultrapower_oracle.py",
    "04_coded_sets.py",
    "05_nonstandard_hulls.py",
    "06_loeb_lebesgue_measure.py",
    "07_external_numbers.py",
]


def _run(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _golden(name):
    return GOLDEN_DIR / (Path(name).stem + ".txt")


@pytest.mark.parametrize("name", NAMES)
def test_demo_runs(name):
    assert _run(name) == _golden(name).read_text(encoding="utf-8")


def _regenerate():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        _golden(name).write_text(_run(name), encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
