"""Closed-loop runner: one client, one thread, one process.

Usage: python3 bench/worker.py SPEC.json OUT.json

Runs whole passes over the spec's operations until ``seconds`` have
been spent inside operations, timing each call.  Times are the CPU time
of this process (``time.process_time``): on an idle machine that equals
the wall time of a call, and on a shared virtual machine it leaves out
the time the host gave to someone else, which wall time would count.
Each time is then scaled by calibration loops run during and around it
(see calibration.py), which cancels most of the speed changes of a
shared host.  With ``trace`` set it runs the passes under the tracer,
then the same number of passes without it, then half as many under the
stack sampler (see tracer.py), to report per-layer figures and the
tracing overhead.  Every operation is wrapped in a catch-all, so one
failure cannot stop the run.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time

import calibration

CALIBRATE_EVERY_S = 0.05  # wall seconds between two calibration loops


def run_passes(calls, observes, seconds, passes=None, tracer=None, names=None, calibrate=True):
    """Run whole passes: ``passes`` of them, or else as many as bring
    the time spent nearest to ``seconds``.  Returns (each operation's
    time on each pass; observations of pass 1; per-op mismatch counts on
    later passes; passes run; CPU seconds spent).

    With ``calibrate``, a timer runs the calibration loop every
    ``CALIBRATE_EVERY_S``, inside an operation if need be, and the
    loop's own time is taken out of the operation's.  Each time is
    scaled to the reference speed by the mean of the loops run during
    the operation and of the nearest one before and after it: a long
    operation is scaled by the speed the host had while it ran, not
    only at its ends."""
    first, changed = [None] * len(calls), [0] * len(calls)
    spent, done = 0.0, 0
    clock = time.process_time
    loops, in_tick, tick_s = [], [False], [0.0]
    timed = []  # (operation, CPU seconds, first and last loop near it)

    def tick(signum, frame):
        if in_tick[0]:
            return
        in_tick[0] = True
        t0 = clock()
        loops.append(calibration.loop_seconds())
        tick_s[0] += clock() - t0
        in_tick[0] = False

    if calibrate:
        tick(None, None)
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
    try:
        while done < passes if passes is not None else (done == 0 or spent + spent / done / 2 < seconds):
            for i, call in enumerate(calls):
                if tracer is not None:
                    tracer.begin_op(i, names[i])
                before, ticked = len(loops), tick_s[0]
                t0 = clock()
                try:
                    result = call()
                    failure = None
                except Exception as exc:  # one operation must not stop the run
                    failure = {"exc": type(exc).__name__, "msg": str(exc)[:200]}
                elapsed = clock() - t0 - (tick_s[0] - ticked)
                if tracer is not None:
                    tracer.end_op()
                timed.append((i, elapsed, before - 1, len(loops)))
                spent += elapsed
                if failure is None:
                    try:
                        seen = observes[i](result)
                    except Exception as exc:
                        seen = {"exc": type(exc).__name__, "msg": str(exc)[:200], "in": "observe"}
                else:
                    seen = failure
                if done == 0:
                    first[i] = seen
                elif seen != first[i]:
                    changed[i] += 1
            done += 1
    finally:
        if calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            tick(None, None)
    samples = [[] for _ in calls]
    for i, elapsed, lo, hi in timed:
        if calibrate:
            elapsed *= calibration.REFERENCE_S / statistics.fmean(loops[lo:hi + 1])
        samples[i].append(elapsed)
    return samples, first, changed, done, spent


def op_name(op):
    """The operation's kind, or for a CLI call its command (and hull's
    subcommand)."""
    if op["kind"] != "cli":
        return op["kind"]
    words = [a for a in op["argv"] if a != "--json"]
    return "cli:" + " ".join(words[:2] if words[:1] == ["hull"] else words[:1])


def main(spec_path, out_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import hyperq

    if not os.path.abspath(hyperq.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"hyperq was imported from {hyperq.__file__}, not from {src}")
    import ops

    built = {}
    prepared = [ops.prepare(op, spec["sets"], built) for op in spec["ops"]]
    calls = [p[0] for p in prepared]
    observes = [p[1] for p in prepared]
    names = [op_name(op) for op in spec["ops"]]
    out = {}
    if spec["trace"]:
        from tracer import Sampler, Tracer

        tracer = Tracer()
        tracer.install()
        samples, first, changed, done, spent = run_passes(
            calls, observes, spec["seconds"], tracer=tracer, names=names)
        tracer.uninstall()
        plain_samples, first2, changed2, _, plain = run_passes(calls, observes, 0, passes=done)
        sampler = Sampler(tracer, cpu_per_pass=plain / done)
        with sampler:
            run_passes(calls, observes, 0, passes=max(1, done // 2), tracer=sampler, names=names,
                       calibrate=False)
        changed = [a + b + (f != g) for a, b, f, g in zip(changed, changed2, first, first2)]
        out["per_layer"] = {k: list(v) for k, v in tracer.metrics(done, sampler, spent / plain).items()}
        out["largest_layer"] = sampler.largest_layer()
        out["absent"] = tracer.absent
        by_name = {}
        for i, layers in sampler.op_self_s().items():
            row = by_name.setdefault(names[i], {})
            for layer, v in layers.items():
                row[layer] = row.get(layer, 0.0) + v
        out["self_s_by_operation"] = by_name
        os.makedirs(os.path.dirname(spec["trace_path"]), exist_ok=True)
        with open(spec["trace_path"], "w", encoding="utf-8") as handle:
            json.dump({"workload": spec["workload"], "seed": spec["seed"], "names": names,
                       **tracer.dump(sampler, names, done)}, handle)
        samples = [a + b for a, b in zip(samples, plain_samples)]
        spent += plain
    else:
        samples, first, changed, done, spent = run_passes(calls, observes, spec["seconds"])
    out.update({
        "samples": samples,
        "observations": first,
        "changed": changed,
        "passes": done,
        "spent": spent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
