"""Traced run: spans around jcore's layer functions, turned into per-layer
metrics named `module.function.stat`.

The tracer replaces each function in WRAPPED by a wrapper wherever callers
look it up: in its own module and in every `jcore` module that imported it
with `from ... import` (so `confine_heap` is replaced in `jcore.confine`,
`jcore.coupling` and `jcore.cli`, and `run` in `jcore.equivalence`), plus the
method `Runtime.invoke` on its class. Spans stay in memory as
[name, parent index, start, end]; a span's self time is its duration minus
the time its direct child spans cover. Counts are taken from arguments and
results at the same boundaries. No file of the package changes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# Layer entry points and the functions the per-layer metrics name. Hot leaf
# helpers (value_kind, role_of, default_value, type_of_expr, ...) stay
# unwrapped: a span per call would cost more than their work, and their time
# shows in the self time of the wrapped function that calls them.
WRAPPED = {
    "parser": ("tokenize", "parse"),
    "desugar": ("desugar", "parse_and_desugar"),
    "classtable": ("build_class_table",),
    "typecheck": ("check_table",),
    "safety": ("safe_table",),
    "interp": ("run", "fresh", "collect", "Runtime.invoke"),
    "confine": ("confine_heap", "confined_store", "check_hext", "run_with_monitor"),
    "equivalence": ("check_comparable", "client_equiv", "canonical_bijection", "run_manifest"),
    "coupling": ("generate_scripts", "run_vector", "root_sigma", "induced_heap_coupling",
                 "check_establishment", "test_simulation", "run_sim_manifest"),
}

HOOK_SPAN = "bench.hook"  # time spent computing counts; excluded from every layer

# name, unit, what it should move (end-to-end metric on workload)
LAYER_METRICS = [
    ("parser.tokenize.self_s", "s", "wall_s on frontend"),
    ("parser.tokens", "count", "wall_s on frontend"),
    ("parser.parse.self_s", "s", "wall_s on frontend"),
    ("desugar.desugar.self_s", "s", "wall_s on frontend"),
    ("desugar.core_nodes", "count", "wall_s on frontend"),
    ("classtable.build_class_table.self_s", "s", "wall_s on frontend"),
    ("typecheck.check_table.self_s", "s", "wall_s on frontend"),
    ("safety.safe_table.self_s", "s", "wall_s on frontend"),
    ("interp.run.calls", "count", "wall_s and peak_rss_mb on interp"),
    ("interp.run.self_s", "s", "wall_s and peak_rss_mb on interp"),
    ("interp.attempts", "count", "wall_s and peak_rss_mb on interp"),
    ("interp.commands", "count", "wall_s and peak_rss_mb on interp"),
    ("interp.settled_share", "ratio", "wall_s and peak_rss_mb on interp"),
    ("interp.invoke.calls", "count", "wall_s and peak_rss_mb on interp; wall_s on harness"),
    ("interp.fresh.calls", "count", "wall_s and peak_rss_mb on interp"),
    ("interp.fresh.self_s", "s", "wall_s and peak_rss_mb on interp"),
    ("interp.max_heap", "count", "wall_s and peak_rss_mb on interp"),
    ("confine.confine_heap.calls", "count", "wall_s on monitor; zero on interp and frontend"),
    ("confine.confine_heap.self_s", "s", "wall_s on monitor; zero on interp and frontend"),
    ("confine.confine_heap.changed_share", "ratio", "wall_s on monitor; zero on interp and frontend"),
    ("confine.confined_store.self_s", "s", "wall_s on monitor; zero on interp and frontend"),
    ("confine.check_hext.self_s", "s", "wall_s on monitor; zero on interp and frontend"),
    ("confine.violations", "count", "wall_s on monitor; zero on interp and frontend"),
    ("equivalence.client_equiv.self_s", "s", "wall_s on harness"),
    ("equivalence.run_calls", "count", "wall_s on harness"),
    ("equivalence.canonical_bijection.calls", "count", "wall_s on harness"),
    ("equivalence.canonical_bijection.self_s", "s", "wall_s on harness"),
    ("coupling.generate_scripts.self_s", "s", "wall_s on harness"),
    ("coupling.scripts", "count", "wall_s on harness"),
    ("coupling.run_vector.calls", "count", "wall_s on harness"),
    ("coupling.run_vector.self_s", "s", "wall_s on harness; peak_rss_mb there with a snapshot tree"),
    ("coupling.steps", "count", "wall_s on harness"),
    ("coupling.distinct_share", "ratio", "wall_s on harness"),
    ("coupling.root_sigma.self_s", "s", "wall_s on harness"),
    ("coupling.induced_heap_coupling.self_s", "s", "wall_s on harness"),
    ("trace.overhead_s", "s", "nothing: traced minus untraced wall_s of one pass"),
]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Forget the spans and counts of the previous pass."""
        self.spans = []
        self._open = []
        self.counts = defaultdict(int)
        self.runtimes = []  # every interp.Runtime made during the pass
        self.max_heap = 0
        self._prev_heap = None
        self._prefixes = set()
        self._tables = []  # keeps class tables alive so prefix keys stay unique

    # -- installation

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "jcore" or n.startswith("jcore.")]
        for short, names in WRAPPED.items():
            mod = sys.modules[f"jcore.{short}"]
            for name in names:
                if name == "Runtime.invoke":
                    self._patch(mod.Runtime, "invoke", self._wrap("interp.invoke", mod.Runtime.invoke))
                    continue
                original = getattr(mod, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)
        runtime = sys.modules["jcore.interp"].Runtime
        init = runtime.__init__

        def counted_init(rt, *args, **kwargs):
            init(rt, *args, **kwargs)
            self.runtimes.append(rt)

        self._patch(runtime, "__init__", counted_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, open_ = self.spans, self._open
            depth = len(open_)
            parent = open_[-1] if depth else -1
            mark = len(self.runtimes)
            # The end stays below the start if a RecursionError cuts the
            # bookkeeping short; such a span is left out of every sum.
            rec = [name, parent, perf_counter(), -1.0]
            spans.append(rec)
            try:
                open_.append(len(spans) - 1)
                result = fn(*args, **kwargs)
            finally:
                del open_[depth:]
                rec[3] = perf_counter()
            if after is not None:
                t = perf_counter()
                after(args, result, mark, parent)
                spans.append([HOOK_SPAN, parent, t, perf_counter()])
            return result

        return traced

    # -- counts taken at the boundaries

    def _after_parser_tokenize(self, args, result, mark, parent):
        self.counts["parser.tokens"] += len(result)

    def _after_desugar_desugar(self, args, result, mark, parent):
        self.counts["desugar.core_nodes"] += core_nodes(result)

    def _after_interp_fresh(self, args, result, mark, parent):
        self.max_heap = max(self.max_heap, len(args[1]) + 1)

    def _after_interp_run(self, args, result, mark, parent):
        self.counts["run.settled_commands"] += result.steps
        self.counts["run.commands"] += sum(rt.steps for rt in self.runtimes[mark:])
        if parent >= 0 and self.spans[parent][0] == "equivalence.client_equiv":
            self.counts["equivalence.run_calls"] += 1

    def _after_confine_confine_heap(self, args, result, mark, parent):
        heap = args[1]
        if heap is not self._prev_heap:
            self.counts["confine_heap.changed"] += 1
        self._prev_heap = heap

    def _after_confine_run_with_monitor(self, args, result, mark, parent):
        self.counts["confine.violations"] += len(result[1])

    def _after_coupling_generate_scripts(self, args, result, mark, parent):
        self.counts["coupling.scripts"] += len(result)

    def _after_coupling_run_vector(self, args, result, mark, parent):
        ct_a, ct_b, _bc, script, fuel = args
        executed = result.failed_at + 1
        self.counts["coupling.steps"] += executed
        self._tables += (ct_a, ct_b)
        for i in range(1, executed + 1):
            self._prefixes.add((id(ct_a), id(ct_b), fuel, script[:i]))

    # -- per-layer metrics of the pass just traced

    def layer_stats(self):
        """Calls and self seconds per span name."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0 and end >= start:
                covered[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0])
        for i, (name, parent, start, end) in enumerate(self.spans):
            if end < start:
                continue
            s = stats[name]
            s[0] += 1
            s[1] += (end - start) - covered[i]
        return stats

    def metrics(self):
        st = self.layer_stats()
        c = self.counts
        out = {}
        for name, _unit, _moves in LAYER_METRICS:
            span, _, stat = name.rpartition(".")
            if stat == "self_s":
                out[name] = st[span][1] if span in st else 0.0
            elif stat == "calls":
                out[name] = st[span][0] if span in st else 0
        out["parser.tokens"] = c["parser.tokens"]
        out["desugar.core_nodes"] = c["desugar.core_nodes"]
        out["interp.attempts"] = len(self.runtimes)
        out["interp.commands"] = sum(rt.steps for rt in self.runtimes)
        out["interp.settled_share"] = _ratio(c["run.settled_commands"], c["run.commands"])
        out["interp.max_heap"] = self.max_heap
        calls = out["confine.confine_heap.calls"]
        out["confine.confine_heap.changed_share"] = _ratio(c["confine_heap.changed"], calls)
        out["confine.violations"] = c["confine.violations"]
        out["equivalence.run_calls"] = c["equivalence.run_calls"]
        out["coupling.scripts"] = c["coupling.scripts"]
        out["coupling.steps"] = c["coupling.steps"]
        out["coupling.distinct_share"] = _ratio(len(self._prefixes), c["coupling.steps"])
        return out

    def write_spans(self, path):
        """One JSON line per span of the pass just traced, in start order."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")


def core_nodes(decls) -> int:
    """Commands and expressions in every constructor and method body, counted
    without recursion so a very long or deep body cannot overflow the stack."""
    from jcore import ast as A

    kinds = tuple(
        getattr(A, n) for n in (
            "Var", "NullLit", "BoolLit", "IntLit", "UnitLit", "FieldAccess", "Eq", "IntOp",
            "InstanceTest", "Cast", "CallExpr", "SuperCallExpr", "NewExpr", "Skip", "Abort",
            "Assign", "FieldAssign", "NewAssign", "CallAssign", "SuperCallAssign",
            "LocalBlock", "If", "While", "Seq",
        )
    )
    stack = [d.constructor for d in decls] + [m.body for d in decls for m in d.methods]
    n = 0
    while stack:
        node = stack.pop()
        n += 1
        for f in dataclasses.fields(node):
            v = getattr(node, f.name)
            if isinstance(v, kinds):
                stack.append(v)
            elif isinstance(v, tuple):
                stack.extend(x for x in v if isinstance(x, kinds))
    return n
