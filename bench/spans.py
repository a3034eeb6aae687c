"""Traced runs: spans around every public ridgekit function.

Each public function of each ridgekit module is replaced, in its defining
module and in every ridgekit module that imported it by name (``cli``
among them), by a wrapper that records a span (name, start, end, parent).
Calls between modules are therefore seen as well as calls from the CLI.
Spans are kept in memory and folded into per-function and per-module
totals at the end of each pass.
"""

import functools
import importlib
import inspect
import time

MODULES = ["core", "cycles", "uniform", "l2", "bolts", "smooth", "sigmoid", "cli"]

# Element-wise helpers called once per coordinate or per dot product;
# wrapping them would time the wrapper, not the layer.
SKIP = {"core.rational", "core.dot"}

# The functions whose .ms and .calls are reported: those the workloads
# call.  bolts.L is left out (its name differs from bolts.l only in case);
# its time is in bolts.self_ms.
LAYER_FUNCTIONS = [
    "cli.main",
    "core.parse_vector", "core.parse_expression", "core.gauss_nodes",
    "core.grid_minimax_oracle",
    "cycles.has_cycle", "cycles.rational_nullspace", "cycles.integerize",
    "cycles.minimal_cycles", "cycles.solve_representation",
    "cycles.tau_closure", "cycles.closed_path_search", "cycles.orbits",
    "sigmoid.fit_two_neuron", "sigmoid.monic_index", "sigmoid.rational_index",
    "sigmoid.cw_index", "sigmoid.eval_network", "sigmoid.sigma_segment",
    "sigmoid.sigma", "sigmoid.monic_enum", "sigmoid.rational_enum",
    "sigmoid.calkin_wilf",
    "uniform.best_uniform", "uniform.mixed_condition_check",
    "uniform.pullback", "uniform.verify_extremal", "uniform.diliberto_straus",
    "l2.build_rset", "l2.best_l2", "l2.l2_error",
    "bolts.vc_best", "bolts.uc_best", "bolts.class_check", "bolts.l",
    "bolts.hexagon_error", "bolts.octagon_error", "bolts.stairlike_error",
    "bolts.ebolts", "bolts.hexagon_ebolts", "bolts.octagon_ebolts",
    "bolts.stairlike_ebolts", "bolts.sharp_bounds", "bolts.golomb_lower_bound",
    "smooth.decompose", "smooth.crosscheck_highorder", "smooth.normalize",
    "smooth.tabulate",
]

def public_functions():
    """[(qualified name, function)] for every wrapped function."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"ridgekit.{short}")
        for name, obj in sorted(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            if f"{short}.{name}" not in SKIP:
                out.append((f"{short}.{name}", obj))
    return out


class Recorder:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index]
        self.stack = []
        self.counts = {}
        self.under_minimal = 0

    def install(self):
        """Replace every public function by a recording wrapper."""
        mods = [importlib.import_module(f"ridgekit.{m}") for m in MODULES]
        mods.append(importlib.import_module("ridgekit"))
        for qual, fn in public_functions():
            wrapper = self._wrap(qual, fn)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def _wrap(self, qual, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = rec.spans, rec.stack
            idx = len(spans)
            span = [qual, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            if qual == "cycles.minimal_cycles":
                rec.under_minimal += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if qual == "cycles.minimal_cycles":
                    rec.under_minimal -= 1
            rec._observe(qual, args, kwargs, result)
            return result

        return wrapper

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _observe(self, qual, args, kwargs, result):
        if qual == "cycles.rational_nullspace":
            self.add("cycles.nullity", len(result))
            if self.under_minimal:
                self.add("minimal.nullspace_calls", 1)
        elif qual == "cycles.minimal_cycles":
            self.add("minimal.certificates", len(result[0]))
        elif qual == "sigmoid.monic_enum":
            self.add("sigmoid.index_bits", int(args[0]).bit_length())
        elif qual == "sigmoid.monic_index":
            self.add("sigmoid.index_bits", int(result).bit_length())
        elif qual == "l2.best_l2":
            weights = kwargs.get("weights", args[2] if len(args) > 2 else None)
            if weights is not None:
                self.add("l2.weighted_iterations",
                         int(result.diagnostics.get("iterations", 0)))

    def fold(self):
        """Totals of the spans recorded since the last fold."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        incl, calls, self_ms = {}, {}, {}
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            # inclusive time counts only the outermost call of a name
            p = parent
            nested = False
            while p >= 0:
                if spans[p][0] == name:
                    nested = True
                    break
                p = spans[p][3]
            if not nested:
                incl[name] = incl.get(name, 0.0) + (end - start) * 1e3
            mod = name.split(".")[0]
            self_ms[mod] = self_ms.get(mod, 0.0) + (end - start - child[i]) * 1e3
        counts = dict(self.counts)
        self.spans = []
        self.counts = {}
        return incl, calls, self_ms, counts


def layer_metrics(incl, calls, self_ms, counts):
    """The per-layer metric dict of one pass."""
    out = {}
    for qual in LAYER_FUNCTIONS:
        out[f"{qual}.ms"] = incl.get(qual, 0.0)
        out[f"{qual}.calls"] = calls.get(qual, 0)
    for mod in MODULES:
        out[f"{mod}.self_ms"] = self_ms.get(mod, 0.0)
    out["cycles.nullity"] = counts.get("cycles.nullity", 0)
    tries = counts.get("minimal.nullspace_calls", 0)
    out["cycles.minimal_cycles.hit_ratio"] = \
        counts.get("minimal.certificates", 0) / tries if tries else 0.0
    out["sigmoid.index_bits"] = counts.get("sigmoid.index_bits", 0)
    out["l2.weighted_iterations"] = counts.get("l2.weighted_iterations", 0)
    out["cli.output_bytes"] = counts.get("cli.output_bytes", 0)
    return out
