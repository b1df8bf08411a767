"""oracle-sweep: the finite ultrapower oracle through the CLI.

finmodel uses no germ, polynomial or parser code, so this is the control
workload: a change to germ or _poly should show no change here.  Sweeps
and model files get the same share of a pass: every pass runs each sweep
size up to the defaults (index 3, carrier 3, depth 2), except the two
largest corners (3.7 and 8 seconds each), and one model file of each of
the same sizes, with seeded relations; the seed also orders the pass.
"""

from __future__ import annotations

import itertools
import os

# (index size, carrier size, formula depth) of each sweep and model file
SIZES = [t for t in itertools.product((1, 2, 3), (1, 2, 3), (1, 2)) if t not in ((2, 3, 2), (3, 3, 2))]
FORMULAS = {1: 6, 2: 50}  # size of the bounded formula pool at each depth


def param_count(carrier: int, index: int, w_pos: int) -> int:
    """Parameter functions per carrier value: the constant one, plus a
    varied one whenever some non-w position can take another value."""
    varied = any((1 + p) % carrier != 0 for p in range(index) if p != w_pos)
    return carrier * (2 if varied else 1)


def sweep_counts(max_index, max_carrier, depth):
    """(los instances, los checks, psi instances, psi checks) from the
    sweep sizes alone."""
    los_i = los_c = psi_i = psi_c = 0
    for c in range(1, max_carrier + 1):
        relations = 2 ** (c * c)
        for m in range(1, max_index + 1):
            for w_pos in range(m):
                los_i += relations
                los_c += relations * FORMULAS[depth] * param_count(c, m, w_pos) ** 2
                psi_i += 1
                psi_c += (2 ** c) ** 2  # pairs of subsets of the c classes
    return los_i, los_c, psi_i, psi_c


def _sweep(index, carrier, depth):
    li, lc, pi, pc = sweep_counts(index, carrier, depth)
    argv = ["oracle", "--index-size", str(index), "--carrier-size", str(carrier), "--depth", str(depth)]
    text = (f"los: {li} instances, {lc} checks, 0 mismatches\n"
            f"psi: {pi} instances, {pc} checks, 0 mismatches\nPASS")
    payload = {"command": "oracle", "status": "ok", "passed": True,
               "los": {"instances": li, "checks": lc, "mismatches": 0},
               "psi": {"instances": pi, "checks": pc, "mismatches": 0}}
    return argv, text, payload


def _model(rng, workdir, index, size, carrier_size, depth):
    carrier = [f"a{i}" for i in range(carrier_size)]
    w = size - 1  # fixed: the number of checks, and so the cost, depends on it
    lines = [f"carrier: {' '.join(carrier)}"]
    for a in carrier:
        for b in carrier:
            if rng.random() < 0.4:
                lines.append(f"member: {a} {b}")
    if carrier_size > 1 and rng.random() < 0.5:
        lines.append(f"unary: small {' '.join(rng.sample(carrier, 2))}  # ignored by the pool")
    lines += [f"index: {size}", f"w: {w}"]
    rng.shuffle(lines)
    path = os.path.join(workdir, f"model-{index}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    checks = FORMULAS[depth] * param_count(len(carrier), size, w) ** 2
    argv = ["oracle", "--model", path, "--depth", str(depth)]
    text = f"model: {len(carrier)} elements, index {size}, {checks} checks, 0 mismatches: PASS"
    payload = {"command": "oracle", "status": "ok", "checks": checks, "mismatches": 0, "passed": True}
    return argv, text, payload


def build(rng, scale, workdir):
    sizes = SIZES if scale >= 1 else [t for t in SIZES if t[1] < 3]
    cases = [("sweep", t) for t in sizes] + [("model", (i, *t)) for i, t in enumerate(sizes)]
    rng.shuffle(cases)
    ops, expected = [], []
    for i, (kind, arg) in enumerate(cases):
        argv, text, payload = _sweep(*arg) if kind == "sweep" else _model(rng, workdir, *arg)
        if i % 2:  # every other operation asks for --json
            ops.append({"kind": "cli", "argv": ["--json"] + argv})
            expected.append({"code": 0, "json": True, "payload": payload})
        else:
            ops.append({"kind": "cli", "argv": argv})
            expected.append({"code": 0, "text": text})
    return ops, expected, {}
