"""Per-layer tracing installed from outside the package.

Every public function of each layer module, and every method written in
the source of each public class there, is replaced by a wrapper that
counts its calls.  Bindings that other modules imported directly
(``from .germ import shadow``) are replaced too, so no call path escapes.
Spans (name, start, end, parent span, operation id) are kept for the
operation itself and for each call that crosses into another layer,
except calls into ``_poly`` and ``germ``: those are far too frequent, so
they are only counted, per operation and in total.  A name that a layer
no longer defines is reported as absent rather than failing the run.

Self time is not taken from the wrappers: their own cost, paid on
hundreds of thousands of calls a second, would be charged to the
callers.  ``Sampler`` instead samples the stack of the same operations
run without wrappers, and charges each sample to the innermost frame of
a wrapped function (to ``bench`` if there is none): the self time of a
function is its share of the samples times the CPU time of a pass run
with neither wrappers nor sampler.  Like the wrappers' own bookkeeping would, a function's self
time includes its private helpers and the standard library it calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import signal
import time
from collections import defaultdict

LAYERS = ("cli", "exprlang", "germ", "_poly", "measure", "coding", "extnum", "hull", "finmodel")
HIGH_FREQUENCY = ("_poly", "germ")
SAMPLE_S = 0.001  # wall seconds between two stack samples
MAX_SPANS = 200_000

GERM_ARITH = tuple(f"germ.Germ.{m}" for m in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__")) + ("germ.arith",)
SET_ALGEBRA = tuple(f"measure.InternalSet.{m}" for m in (
    "union", "intersect", "complement", "difference", "subset_of", "is_disjoint_from"))

# Names the per-layer metrics are computed from; any that is missing is
# listed as absent in the run record.
EXPECTED = (
    "_poly.mul", "_poly.divmod_", "_poly.gcd", "_poly.degree",
    "germ.Germ.__init__", "germ.Germ.is_constant", "germ.compare", "germ.eventually_threshold",
    "exprlang.parse", "exprlang.to_germ", "exprlang.format", "cli.run_command",
    "hull.hull_limit", "measure.InternalSet.__init__", "measure.sigma_limit",
    "measure.loeb_measure", "extnum.make", "coding.satisfies", "coding.membership",
    "coding.countable_ops", "coding.union_witness", "finmodel.ultrapower_quotient",
    "finmodel.evaluate", "finmodel.los_sweep", "finmodel.psi_sweep", "finmodel.los_check",
) + GERM_ARITH + SET_ALGEBRA


def _coeff_bits(c) -> int:
    num = getattr(c, "numerator", c)
    den = getattr(c, "denominator", 1)
    return abs(int(num)).bit_length() + abs(int(den)).bit_length()


class Tracer:
    def __init__(self, package: str = "hyperq"):
        self.package = package
        self.active = False
        self.stack = []
        self.calls = defaultdict(int)
        self.layer_calls = defaultdict(int)
        self.spans = []
        self.dropped_spans = 0
        self.op_calls = {}  # operation index -> calls per high-frequency layer
        self.originals = {}
        self.layer_of = {}
        self.found = set()
        self._restore = []
        # figures gathered by hooks
        self.const_inits = 0
        self.gcd_nontrivial = 0
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.max_pieces = 0
        self.sigma_materialized = 0
        self.sigma_values = 0
        self.make_depth = 0
        self.germ_ops_in_make = 0
        self.witness_depth = 0
        self.members_in_witness = 0
        self.witness_hits = 0
        self.sweep_checks = 0

    # -- installation ---------------------------------------------------

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                continue
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    w = self._wrap(layer, f"{layer}.{name}", obj)
                    wrapped[id(obj)] = (obj, w)
                    self._set(mod, name, w)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, mod, obj)
        # rebind names other modules imported directly
        package = importlib.import_module(self.package)
        for mod in [package, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])
        self.absent = sorted(set(EXPECTED) - self.found)

    def _wrap_class(self, layer, mod, cls):
        source = getattr(mod, "__file__", None)
        for attr, val in list(vars(cls).items()):
            dunder = attr.startswith("__") and attr.endswith("__")
            if attr.startswith("_") and not dunder:
                continue
            kind = type(val) if isinstance(val, (staticmethod, classmethod)) else None
            fn = val.__func__ if kind else val
            if not inspect.isfunction(fn) or fn.__code__.co_filename != source:
                continue
            w = self._wrap(layer, f"{layer}.{cls.__name__}.{attr}", fn)
            self._set(cls, attr, kind(w) if kind else w, original=val)

    def _set(self, owner, name, value, original=None):
        self._restore.append((owner, name, vars(owner)[name] if original is None else original))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer, key, fn):
        self.found.add(key)
        self.originals[key] = fn
        self.layer_of[key] = layer
        after = self._hook(key)
        counts_in_make = key in GERM_ARITH
        counts_in_witness = key == "coding.membership"
        depth_attr = {"extnum.make": "make_depth", "coding.union_witness": "witness_depth"}.get(key)
        spans_here = layer not in HIGH_FREQUENCY
        tracer, stack, perf = self, self.stack, time.perf_counter
        calls, layer_calls = self.calls, self.layer_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[key] += 1
            layer_calls[layer] += 1
            parent_layer, sid = stack[-1]
            parent_sid = sid
            if spans_here and parent_layer != layer:
                sid = tracer._open_span(key, perf(), sid)
            stack.append((layer, sid))
            if counts_in_make and tracer.make_depth:
                tracer.germ_ops_in_make += 1
            if counts_in_witness and tracer.witness_depth:
                tracer.members_in_witness += 1
            if depth_attr:
                setattr(tracer, depth_attr, getattr(tracer, depth_attr) + 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                if depth_attr:
                    setattr(tracer, depth_attr, getattr(tracer, depth_attr) - 1)
                if sid != parent_sid:
                    tracer.spans[sid][2] = perf()
            if after is not None:  # hooks run untraced
                tracer.active = False
                try:
                    after(args, result)
                finally:
                    tracer.active = True
            return result

        return wrapper

    def _open_span(self, name, start, parent):
        if len(self.spans) >= MAX_SPANS:
            self.dropped_spans += 1
            return parent
        self.spans.append([name, start, None, parent, self.op_id])
        return len(self.spans) - 1

    def _hook(self, key):
        """The figures some metrics need from a call's arguments or result."""
        if key == "germ.Germ.__init__":
            def after(args, result):
                is_constant = self.originals.get("germ.Germ.is_constant")
                if is_constant is not None and is_constant(args[0]):
                    self.const_inits += 1
            return after
        if key == "_poly.gcd":
            def after(args, result):
                degree = self.originals.get("_poly.degree")
                if (degree(result) if degree else len(result) - 1) > 0:
                    self.gcd_nontrivial += 1
                self._poly_size(result)
            return after
        if key == "_poly.mul":
            return lambda args, result: self._poly_size(result)
        if key == "measure.InternalSet.__init__":
            def after(args, result):
                self.max_pieces = max(self.max_pieces, len(args[0].pieces))
            return after
        if key == "measure.sigma_limit":
            def after(args, cert):
                self.sigma_materialized += cert.materialized_to - cert.values[0][0] + 1
                self.sigma_values += len(cert.values)
            return after
        if key == "coding.union_witness":
            def after(args, result):
                if result is not None:
                    self.witness_hits += 1
            return after
        if key in ("finmodel.los_sweep", "finmodel.psi_sweep"):
            def after(args, report):
                self.sweep_checks += report.checks
            return after
        return None

    def _poly_size(self, p):
        try:
            coeffs = list(p)
        except TypeError:
            return
        self.max_degree = max(self.max_degree, len(coeffs) - 1)
        if coeffs:
            self.max_coeff_bits = max(self.max_coeff_bits, max(map(_coeff_bits, coeffs)))

    # -- operations --------------------------------------------------------

    def begin_op(self, op_id, name):
        self.op_id = op_id
        self._op_start = dict(self.layer_calls)
        sid = self._open_span(name, time.perf_counter(), None)
        self.stack[:] = [("bench", -1 if sid is None else sid)]
        self.active = True

    def end_op(self):
        t1 = time.perf_counter()
        self.active = False
        sid = self.stack.pop()[1]
        if sid >= 0:
            self.spans[sid][2] = t1
        counts = self.op_calls.setdefault(self.op_id, dict.fromkeys(HIGH_FREQUENCY, 0))
        for layer in HIGH_FREQUENCY:
            counts[layer] += self.layer_calls.get(layer, 0) - self._op_start.get(layer, 0)

    # -- results -------------------------------------------------------------

    def metrics(self, passes: int, sampler: "Sampler", overhead_ratio: float) -> dict:
        """Per-layer figures, per pass over the workload's operation mix;
        self times come from the sampler."""
        c = lambda *keys: sum(self.calls.get(k, 0) for k in keys) / passes
        self_s, layer_self = sampler.self_s()
        s = lambda *keys: sum(self_s.get(k, 0.0) for k in keys)
        ls = lambda layer: layer_self.get(layer, 0.0)
        ratio = lambda a, b: a / b if b else 0.0
        m = {
            "poly.mul.calls": (c("_poly.mul"), "count"),
            "poly.divmod.calls": (c("_poly.divmod_"), "count"),
            "poly.gcd.calls": (c("_poly.gcd"), "count"),
            "poly.self_s": (ls("_poly"), "s"),
            "poly.gcd.nontrivial_ratio": (ratio(self.gcd_nontrivial, self.calls.get("_poly.gcd", 0)), "ratio"),
            "poly.max_degree": (self.max_degree, "count"),
            "poly.max_coeff_bits": (self.max_coeff_bits, "bits"),
            "germ.init.calls": (c("germ.Germ.__init__"), "count"),
            "germ.init.self_s": (s("germ.Germ.__init__"), "s"),
            "germ.init.const_ratio": (ratio(self.const_inits, self.calls.get("germ.Germ.__init__", 0)), "ratio"),
            "germ.compare.calls": (c("germ.compare"), "count"),
            "germ.compare.self_s": (s("germ.compare"), "s"),
            "germ.arith.calls": (c(*GERM_ARITH), "count"),
            "germ.arith.self_s": (s(*GERM_ARITH), "s"),
            "germ.threshold.self_s": (s("germ.eventually_threshold"), "s"),
            "exprlang.parse.calls": (c("exprlang.parse", "exprlang.parse_items"), "count"),
            "exprlang.parse.self_s": (s("exprlang.parse", "exprlang.parse_items"), "s"),
            "exprlang.to_germ.calls": (c("exprlang.to_germ"), "count"),
            "exprlang.to_germ.self_s": (s("exprlang.to_germ"), "s"),
            "exprlang.format.calls": (c("exprlang.format"), "count"),
            "exprlang.format.self_s": (s("exprlang.format"), "s"),
            "cli.run_command.calls": (c("cli.run_command"), "count"),
            "hull.hull_limit.self_s": (s("hull.hull_limit"), "s"),
            "measure.internal_set.calls": (c("measure.InternalSet.__init__"), "count"),
            "measure.internal_set.self_s": (s("measure.InternalSet.__init__"), "s"),
            "measure.set_algebra.calls": (c(*SET_ALGEBRA), "count"),
            "measure.set_algebra.self_s": (s(*SET_ALGEBRA), "s"),
            "measure.pieces.max": (self.max_pieces, "count"),
            "measure.sigma_limit.self_s": (s("measure.sigma_limit"), "s"),
            "measure.sigma.materialized_ratio": (ratio(self.sigma_materialized, self.sigma_values), "ratio"),
            "measure.loeb.self_s": (s("measure.loeb_measure"), "s"),
            "extnum.make.calls": (c("extnum.make"), "count"),
            "extnum.make.self_s": (s("extnum.make"), "s"),
            "extnum.germ_ops_per_make": (ratio(self.germ_ops_in_make, self.calls.get("extnum.make", 0)), "ratio"),
            "coding.satisfies.calls": (c("coding.satisfies"), "count"),
            "coding.countable_ops.self_s": (s("coding.countable_ops"), "s"),
            "coding.union_witness.self_s": (s("coding.union_witness"), "s"),
            "coding.witness.members_per_hit": (ratio(self.members_in_witness, self.witness_hits), "ratio"),
            "finmodel.ultrapower_quotient.calls": (c("finmodel.ultrapower_quotient"), "count"),
            "finmodel.ultrapower_quotient.self_s": (s("finmodel.ultrapower_quotient"), "s"),
            "finmodel.evaluate.calls": (c("finmodel.evaluate"), "count"),
            "finmodel.evaluate.self_s": (s("finmodel.evaluate"), "s"),
            "finmodel.sweep.self_s": (s("finmodel.los_sweep", "finmodel.psi_sweep"), "s"),
            "finmodel.checks": ((self.sweep_checks + self.calls.get("finmodel.los_check", 0)) / passes, "count"),
            "finmodel.evaluate_per_check": (ratio(self.calls.get("finmodel.evaluate", 0),
                                                  self.sweep_checks + self.calls.get("finmodel.los_check", 0)), "ratio"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
        for layer in LAYERS + ("bench",):
            m[f"{layer.lstrip('_')}.self_s"] = (ls(layer), "s")
        return m

    def dump(self, sampler: "Sampler", names, passes: int) -> dict:
        """The trace: spans, and per operation and per function the calls
        over all traced passes and the self seconds per pass."""
        self_s, layer_self = sampler.self_s()
        op_self = sampler.op_self_s()
        return {
            "traced_passes": passes,
            "absent": self.absent,
            "dropped_spans": self.dropped_spans,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "ops": [{"name": name, "calls": self.op_calls.get(i, {}),
                     "self_s": {layer: round(v, 9) for layer, v in op_self.get(i, {}).items()}}
                    for i, name in enumerate(names)],
            "functions": {k: [self.calls.get(k, 0), round(self_s.get(k, 0.0), 9)]
                          for k in sorted(set(self.calls) | set(self_s))},
            "layer_self_s": {k: round(v, 9) for k, v in sorted(layer_self.items())},
            "samples": sampler.samples,
        }


class Sampler:
    """Samples the stack every ``SAMPLE_S`` wall seconds while an
    operation runs, and charges each sample to the innermost frame of a
    function the tracer wraps.  Used in place of the tracer in the
    worker's passes (``begin_op``/``end_op``), with the wrappers removed.
    The shares of the samples are turned into seconds per pass with
    ``cpu_per_pass``, the CPU time of one pass measured without the
    sampler, so that the sampler's own cost is counted nowhere."""

    def __init__(self, tracer: Tracer, cpu_per_pass: float):
        self.codes = {fn.__code__: key for key, fn in tracer.originals.items()}
        self.layer_of = tracer.layer_of
        self.cpu_per_pass = cpu_per_pass
        self.hits = defaultdict(int)  # function key, or "bench" -> samples
        self.op_hits = defaultdict(int)  # (operation index, layer) -> samples
        self.samples = 0
        self.op = None

    def begin_op(self, op_id, name):
        self.op = op_id

    def end_op(self):
        self.op = None

    def _tick(self, signum, frame):
        op = self.op
        if op is None:
            return
        codes = self.codes
        while frame is not None:
            key = codes.get(frame.f_code)
            if key is not None:
                break
            frame = frame.f_back
        else:
            key = "bench"
        self.hits[key] += 1
        self.op_hits[op, self.layer_of.get(key, "bench")] += 1
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _seconds_per_sample(self):
        return self.cpu_per_pass / self.samples if self.samples else 0.0

    def self_s(self):
        """(self seconds per function key, per layer), per pass."""
        unit = self._seconds_per_sample()
        per_key = {key: n * unit for key, n in self.hits.items()}
        per_layer = defaultdict(float)
        for key, v in per_key.items():
            per_layer[self.layer_of.get(key, "bench")] += v
        return per_key, dict(per_layer)

    def op_self_s(self):
        """{operation index: {layer: self seconds}}, per pass."""
        unit = self._seconds_per_sample()
        out = defaultdict(dict)
        for (op, layer), n in self.op_hits.items():
            out[op][layer] = n * unit
        return out

    def largest_layer(self) -> str:
        layer_self = self.self_s()[1]
        return max(LAYERS, key=lambda layer: layer_self.get(layer, 0.0))
