"""Span tracing of the calls into each slrc module, installed at run time.

Every public function listed in SPANS is replaced, in every slrc module
namespace that holds it, by a wrapper that records a span (name, start,
end, parent) and, for some, a count taken from the arguments or the
result.  Spans stay in memory until the run ends.  A layer's self time
is the sum of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time

from oracle import rank_of_combination


# Count hooks run before the call they count and may return a function
# that receives the call's result.

def _encode_count(c, args):
    c["construct.encode_calls"] += 1


def _dual_count(c, args):
    from slrc import linear
    code, wmax = args[0], args[1]
    c["linear.dual_calls"] += 1
    if any(w >= wmax for w in code._dual_cache):
        return None                      # served from the code's cache

    def after(result):
        c["linear.dual_words"] += len(result)
        q = code.field.q
        if (q ** code.rank <= linear.ENUM_LIMIT
                and code.field.add_table is not None):
            c["linear.dual_rowspace_vectors"] += q ** code.rank
            c["linear.dual_bytes"] += 8 * code.n * q ** code.rank
        else:
            c["linear.dual_subsets"] += sum(math.comb(code.n, w)
                                            for w in range(1, wmax + 1))
    return after


def patterns_checked(n, report):
    """Erasure patterns a verification report actually peeled: every
    pattern of the sizes that passed, plus, at the failing size, the
    failing pattern's 1-based position in lexicographic order."""
    failing = report.failing_pattern
    passed = (len(failing) - 1) if failing is not None else report.checked_t
    total = sum(math.comb(n, s) for s in range(1, passed + 1))
    if failing is not None:
        total += rank_of_combination(n, tuple(failing)) + 1
    return total


def _verify_count(c, args):
    def after(report):
        c["verify.patterns_checked"] += patterns_checked(args[0].n, report)
    return after


def _plan_count(c, args):
    def after(schedule):
        c["simulate.plan_calls"] += 1
        c["simulate.stuck_plans"] += not schedule.complete
    return after


def _execute_count(c, args):
    steps = args[3].steps
    c["simulate.steps"] += len(steps)
    c["simulate.helpers_read"] += sum(len(s.helpers) for s in steps)


def _save_count(c, args):
    def after(result):
        c["matrixio.bytes"] += os.path.getsize(args[1])
    return after


def _load_count(c, args):
    c["matrixio.bytes"] += os.path.getsize(args[0])


# (module, attribute path, span name, count hook)
SPANS = [
    ("slrc.field", "GF.__init__", "field.build", None),
    ("slrc.designs", "complete_graph_design", "designs.build", None),
    ("slrc.designs", "affine_design", "designs.build", None),
    ("slrc.designs", "load_design", "designs.build", None),
    ("slrc.mds", "build_mds_parity", "mds.build", None),
    ("slrc.construct", "build_parity_check", "construct.build", None),
    ("slrc.construct", "constructed_from_matrix", "construct.build", None),
    ("slrc.construct", "ConstructedCode.encode", "construct.encode",
     _encode_count),
    ("slrc.linear", "LinearCode.__init__", "linear.rank", None),
    ("slrc.linear", "LinearCode.generator", "linear.generator", None),
    ("slrc.linear", "dual_low_weight", "linear.dual", _dual_count),
    ("slrc.linear", "recovery_sets_for", "linear.recovery_sets", None),
    ("slrc.linear", "all_recovery_sets", "linear.recovery_sets", None),
    ("slrc.linear", "min_distance", "linear.min_distance", None),
    ("slrc.linear", "puncture", "linear.puncture", None),
    ("slrc.verify", "check_sequential", "verify.sequential", _verify_count),
    ("slrc.verify", "max_sequential_t", "verify.max_t", _verify_count),
    ("slrc.verify", "check_information_locality", "verify.locality", None),
    ("slrc.verify", "check_code_structure", "verify.structure", None),
    ("slrc.simulate", "trial_campaign", "simulate.campaign", None),
    ("slrc.simulate", "plan_repair", "simulate.plan", _plan_count),
    ("slrc.simulate", "execute_repair", "simulate.execute", _execute_count),
    ("slrc.matrixio", "save_matrix", "matrixio.save", _save_count),
    ("slrc.matrixio", "load_matrix", "matrixio.load", _load_count),
    ("slrc.reference", "rebuild_and_diff", "reference.rebuild_diff", None),
    ("slrc.bounds", "rate_report", "bounds.report", None),
    ("slrc.cli", "main", "cli.self", None),
]

COUNTS = ["construct.encode_calls", "linear.dual_calls", "linear.dual_words",
          "linear.dual_subsets", "linear.dual_rowspace_vectors",
          "linear.dual_bytes", "verify.patterns_checked",
          "simulate.plan_calls", "simulate.stuck_plans", "simulate.steps",
          "simulate.helpers_read", "matrixio.bytes"]


class Tracer:
    """Spans and counts of one traced phase, kept in memory."""

    def __init__(self):
        self.names = sorted({name for _, _, name, _ in SPANS})
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.spans = []          # [name id, start ns, end ns, parent index]
        self._stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._patched = []

    def wrap(self, fn, name, hook):
        name_id = self._name_id[name]
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            after = hook(counts, args) if hook is not None else None
            idx = len(spans)
            spans.append([name_id, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace each listed function wherever an slrc module binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "slrc" or k.startswith("slrc.")]
        for modname, path, name, hook in SPANS:
            owner = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, property):
                    new = property(self.wrap(orig.fget, name, hook))
                else:
                    new = self.wrap(orig, name, hook)
                self._patched.append((cls, attr, orig))
                setattr(cls, attr, new)
                continue
            orig = getattr(owner, path)
            new = self.wrap(orig, name, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self):
        for target, key, orig in reversed(self._patched):
            setattr(target, key, orig)
        self._patched.clear()

    def self_times(self):
        """Self time in seconds per span name."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(self.names, 0.0)
        for (nid, start, end, _), c in zip(self.spans, child):
            out[self.names[nid]] += (end - start - c) / 1e9
        return out

    def layer_metrics(self, rounds, speed):
        """Per-layer metrics per traced round; times are multiplied by
        `speed` to bring them to reference machine speed."""
        st = {k: v * speed for k, v in self.self_times().items()}
        c = self.counts
        m = {f"{name}_s": t for name, t in st.items()}
        m.update(c)
        m = {k: v / rounds for k, v in m.items()}
        peel_s = st["verify.sequential"] + st["verify.max_t"]
        m["verify.patterns_per_s"] = (c["verify.patterns_checked"] / peel_s
                                      if peel_s else 0.0)
        m["trace.spans"] = len(self.spans) / rounds
        return m

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields":
                       ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
