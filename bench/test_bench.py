"""The benchmark's own tests, at smoke size.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference as R  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)


def _run(workload, trace, cwd=ROOT, bench=HERE):
    done = subprocess.run(
        [sys.executable, os.path.join(bench, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert "uncaught" not in done.stdout, done.stdout
    assert result["correct"] and result["failed"] == 0, done.stderr
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("query-mix", 0, cwd=tmp_path, bench=str(tmp_path / "bench"))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_one_failing_operation_does_not_stop_the_run():
    from hyperq import cli

    def nested():
        return cli.run_command(["eval", "(" * 200 + "w" + ")" * 200]).exit_code

    def boom():
        raise RecursionError("maximum recursion depth exceeded")

    calls = [boom, nested, lambda: 1]
    samples, first, changed, passes, _ = worker.run_passes(calls, [lambda r: r] * 3, 0, passes=2)
    assert passes == 2 and [len(s) for s in samples] == [2, 2, 2]
    assert first[0]["exc"] == "RecursionError"
    assert first[1] in (2, 3, 4) or first[1]["exc"]  # an exit code, or a recorded exception
    assert first[2] == 1 and changed == [0, 0, 0]


def test_checker_classifies_outcomes():
    assert run.check({"code": 0, "out": "w\n"}, {"code": 0, "text": "w"}) == "ok"
    assert run.check({"code": 3, "out": "error: x\n"}, {"code": 3}) == "expected-error"
    assert run.check({"code": 4, "out": "error: x\n"}, {"code": 3}) == "unexpected-error"
    assert run.check({"code": 0, "out": "w\n"}, {"code": 3}) == "wrong"
    assert run.check({"exc": "RecursionError"}, {"code": 0, "text": "w"}) == "uncaught"
    assert run.check({"exc": "NonMonotoneGeneratorError"}, {"raises": "NonMonotoneGeneratorError"}) \
        == "expected-error"
    assert run.check({"members": [], "witness": None}, {"raises": "NonMonotoneGeneratorError"}) == "wrong"


def test_reference_sees_the_late_turn_of_a_sampled_family():
    # lo(k) = (k-12)^2/(k^3+1000) falls, then rises after k=12: not
    # monotone on k >= 1, although its first eight steps all fall.
    k = R.RF.var(R.K)
    lo = (k - R.RF.const(Fraction(12), R.K)) ** 2 / (k ** 3 + R.RF.const(Fraction(1000), R.K))
    assert R.monotone_direction(lo, 1) is None
    assert R.monotone_direction(R.RF.const(Fraction(1), R.K) / k, 1) == -1


def test_reference_prints_the_canonical_form():
    w = R.RF.var()
    c = lambda q: R.RF.const(Fraction(q))
    assert str((c(2) * w ** 2 + c(3)) / (w ** 2 - w)) == "(2*w^2 + 3)/(w^2 - w)"
    assert str(c(Fraction(1, 2)) / (w + c(1))) == "1/2/(w + 1)"
    assert str(-w / (w ** 2 + c(1))) == "-w/(w^2 + 1)"
    assert str(R.laurent_truncation(c(1) / (w + c(1)), -4)) == "(w^2 - w + 1)/w^3"
    assert R.shadow((w + c(1)) / (c(2) * w - c(3))) == Fraction(1, 2)


def test_tracer_reports_absent_names_and_restores_the_package():
    import hyperq.germ
    import tracer

    original = hyperq.germ.compare
    t = tracer.Tracer()
    saved = tracer.EXPECTED
    tracer.EXPECTED = saved + ("_poly.no_such_function",)
    try:
        t.install()
        assert hyperq.germ.compare is not original
        assert "_poly.no_such_function" in t.absent
        t.begin_op(0, "probe")
        hyperq.germ.compare(hyperq.germ.OMEGA, hyperq.germ.ONE)
        t.end_op()
        assert t.calls["germ.compare"] == 1 and t.calls["_poly.gcd"] >= 1
    finally:
        t.uninstall()
        tracer.EXPECTED = saved
    assert hyperq.germ.compare is original


def test_sampler_charges_time_to_the_wrapped_functions():
    import hyperq.germ
    import tracer

    t = tracer.Tracer()
    t.install()
    t.uninstall()
    a = hyperq.germ.parse_germ("(3*w^6 - 2*w + 7)/(w^5 + 4*w^2 - 1)")
    b = hyperq.germ.parse_germ("(w^6 + 5*w^3 - 2)/(2*w^5 - w + 3)")
    with tracer.Sampler(t, cpu_per_pass=2.0) as sampler:
        sampler.begin_op(0, "probe")
        for _ in range(40):
            hyperq.germ.arith(a, b, "mul")
        sampler.end_op()
    per_key, per_layer = sampler.self_s()
    assert sampler.samples > 0
    assert abs(sum(per_layer.values()) - 2.0) < 1e-9
    assert per_layer.get("_poly", 0) + per_layer.get("germ", 0) > 0.8 * 2.0
    assert set(sampler.op_self_s()) == {0}
