"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys

import pytest

import hyperq

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(hyperq.__file__)))


@pytest.mark.parametrize("name", [
    "01_germ_arithmetic.py",
    "02_expression_language.py",
    "03_finite_ultrapower_oracle.py",
    "04_coded_sets.py",
    "05_nonstandard_hulls.py",
    "06_loeb_lebesgue_measure.py",
    "07_external_numbers.py",
])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
