"""hyperq benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload query-mix --seed 1 --seconds 18 --trace 0

The inputs and their reference answers are made here, from the seed,
without hyperq.  A fresh worker process then runs them as a closed loop
with one client (see worker.py), in whole passes over a fixed mix, and
every output is checked against the references.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  The last line
of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Each operation's time is its CPU time, scaled to a reference speed by
calibration loops run during and around it (calibration.py, worker.py),
and then the median of those over the passes.  The shared machines this
runs on change speed by up to half for seconds at a time; the scaling
and the median keep most of that out of the figures.  Throughput, median
and tail latency are all taken from these per-operation times, in
milliseconds on a machine where the calibration loop takes
``calibration.REFERENCE_S``.

``--smoke`` shrinks every workload to a few operations, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import wl_deep  # noqa: E402
import wl_oracle  # noqa: E402
import wl_query  # noqa: E402
import wl_sigma  # noqa: E402

WORKLOADS = {
    "query-mix": wl_query,
    "sigma-sets": wl_sigma,
    "deep-symbolic": wl_deep,
    "oracle-sweep": wl_oracle,
}
SETUP_RUNS = 9
# The reference for set-up time: a bare interpreter start importing the
# standard modules hyperq imports, and the CPU time it is scaled to.
BARE_START = "import dataclasses, enum, fractions, itertools, json, shlex, sys, typing\n"
BARE_START_S = 0.05
WORK = os.path.join(ROOT, ".bench_work")


def _child_cpu(code, env):
    """CPU time, user plus system, of a fresh interpreter running code."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    elapsed = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return elapsed, done


def setup_seconds(runs=SETUP_RUNS):
    """Median time for a fresh interpreter to import hyperq and all of its
    submodules, then answer ``eval w`` through ``cli.main``.

    Each probe's CPU time is scaled to the reference speed by the CPU
    time of a bare interpreter start that imports only the standard
    modules hyperq uses, run before and after it: the probe's time on a
    machine where that start takes ``BARE_START_S``.  Start-up work
    (reading, unmarshalling and running module code) follows the host's
    speed changes much more closely than the calibration loop of the
    operations does: scaled by that loop, the medians of separate runs
    spread by about a quarter."""
    src = os.path.join(ROOT, "src")
    names = sorted(f[:-3] for f in os.listdir(os.path.join(src, "hyperq"))
                   if f.endswith(".py") and not f.startswith("__"))
    code = ("import hyperq\n" + "".join(f"import hyperq.{n}\n" for n in names)
            + "import sys\nsys.exit(hyperq.cli.main(['eval', 'w']))\n")
    env = dict(os.environ, PYTHONPATH=src)
    bare = _child_cpu(BARE_START, env)[0]
    times = []
    for i in range(runs + 1):
        elapsed, done = _child_cpu(code, env)
        if done.returncode != 0 or done.stdout != "w\n":
            raise RuntimeError(f"set-up probe failed: {done.returncode} {done.stderr[-300:]}")
        next_bare = _child_cpu(BARE_START, env)[0]
        if i:  # the first run may compile bytecode
            times.append(elapsed * 2 * BARE_START_S / (bare + next_bare))
        bare = next_bare
    return statistics.median(times), len(times)


def check(obs, exp):
    """Outcome of one operation: ok, expected-error, unexpected-error,
    wrong or uncaught."""
    if "code" in exp:  # a CLI call
        if "exc" in obs:
            return "uncaught"
        if obs["code"] != exp["code"]:
            return "wrong" if obs["code"] == 0 else "unexpected-error"
        if exp.get("json"):
            try:
                got = json.loads(obs["out"])
            except ValueError:
                return "wrong"
            if exp["code"] != 0:
                ok = got.get("status") == "error" and got.get("code") == exp["code"]
                return "expected-error" if ok else "wrong"
            want = exp["payload"]
            if exp.get("partial"):
                got = {k: got.get(k) for k in want}
            return "ok" if got == want else "wrong"
        if exp["code"] != 0:
            return "expected-error" if obs["out"].startswith("error: ") else "wrong"
        return "ok" if obs["out"] == exp["text"] + "\n" else "wrong"
    if "raises" in exp:
        if isinstance(obs, dict) and obs.get("exc") == exp["raises"]:
            return "expected-error"
        return "uncaught" if isinstance(obs, dict) and "exc" in obs else "wrong"
    if isinstance(obs, dict) and "exc" in obs:
        return "uncaught"
    if "predicate" in exp:
        return "ok" if exp["predicate"](obs) else "wrong"
    return "ok" if obs == exp["value"] else "wrong"


def tail(latencies):
    """The value at the highest whole percentile that leaves at least 10
    samples beyond it, and that percentile."""
    n = len(latencies)
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(p / 100 * n) - 1)], p


def machine(seed, workload, attempted):
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        commit = ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if ref.startswith("ref: ") and os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                commit = handle.read().strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit, "seed": seed, "workload": workload, "attempted": attempted}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hyperq", "__init__.py")):
        print(f"error: no hyperq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        scale = 0.05 if args.smoke else 1.0
        ops, expected, sets = WORKLOADS[args.workload].build(rng, scale, workdir)
        if not args.trace:  # set-up time is an end-to-end metric only
            setup_s, setup_n = setup_seconds(2 if args.smoke else SETUP_RUNS)

        spec_path = os.path.join(workdir, "spec.json")
        out_path = os.path.join(workdir, "out.json")
        trace_path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump({"root": ROOT, "workload": args.workload, "seed": args.seed, "ops": ops,
                       "sets": sets, "seconds": args.seconds, "trace": bool(args.trace),
                       "trace_path": trace_path}, handle)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, out_path],
                       cwd=ROOT, check=True, timeout=900)
        with open(out_path, encoding="utf-8") as handle:
            out = json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = {}
    per_op = [check(obs, exp) for obs, exp in zip(out["observations"], expected)]
    repeats = out["passes"] * (2 if args.trace else 1)
    failed = 0
    for i, outcome in enumerate(per_op):
        if out["changed"][i]:
            outcome = "wrong"  # output bytes changed on a repeat call
        outcomes[outcome] = outcomes.get(outcome, 0) + repeats
        if outcome in ("unexpected-error", "wrong", "uncaught"):
            failed += repeats
            print(f"FAILED op {i} ({outcome}): {json.dumps(ops[i])[:300]} -> "
                  f"{json.dumps(out['observations'][i])[:300]}", file=sys.stderr)
    attempted = sum(len(s) for s in out["samples"])

    record = machine(args.seed, args.workload, attempted)
    print("run:", json.dumps(record))
    print("outcomes:", json.dumps(outcomes), f"passes: {out['passes']}")
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in out["per_layer"].items()}
        print(f"largest self time: {out['largest_layer']}; absent names: {out['absent']}")
        print("self seconds per pass, by operation and layer:")
        for name, layers in sorted(out["self_s_by_operation"].items()):
            top = sorted(layers.items(), key=lambda kv: -kv[1])
            print(f"  {name}: " + ", ".join(f"{layer} {v:.4f}" for layer, v in top))
    else:
        lat_ms = [statistics.median(s) * 1000 for s in out["samples"]]
        tail_ms, p = tail(lat_ms)
        metrics = {
            "ops_per_s": {"value": 1000 * len(lat_ms) / sum(lat_ms), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
        print(f"samples: {len(lat_ms)} operations x {out['passes']} passes (tail at p{p}), "
              f"setup {setup_n}; {attempted / out['spent']:.4f} ops per CPU second over all passes; "
              f"error_rate {failed / attempted} ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
