"""Seeded workloads for the jcore benchmark.

A workload is a list of operations. Each operation calls the library entry
point that a CLI subcommand calls and returns a small verdict, which is
compared with an answer known independently of the code under test: a pinned
record from the corpus expectations or manifests, or a value known by
construction. The seed picks the operation order, generated identifiers and
the contents of the frontend padding; it never changes the size of an input.

Building a workload has two parts that are timed apart. Generating source
text from the seed is input generation and is left out of `setup_s`; reading
the corpus, the manifests and building the class tables the operations run
on is loading and counts toward it.
"""

from __future__ import annotations

import os
import random
import string
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

import jcore as jc
from jcore import corpus, coupling, equivalence

# Frontend padding per corpus program: classes x methods, each method with
# four local declarations plus PAD_REPEAT copies of every statement template.
PAD_CLASSES = 4
PAD_METHODS = 4
PAD_REPEAT = 2

# ROADMAP stack probes. They raise RecursionError at the commit that added
# the benchmark; once they pass, each costs well under a tenth of its
# workload's wall time.
PROBE_STATEMENTS = 1000
PROBE_PARENS = 300
PROBE_DEPTHS = (50, 100, 1000)

OBSERVER_SIZES_RUN = (200, 400, 800, 1600)
OBSERVER_SIZES_MONITOR = (12, 25, 50)
LOOP_ITERATIONS = 3000
MAX_FUEL = 1024  # the library and CLI default


@dataclass
class Op:
    name: str
    fn: Callable[[], object]  # runs the operation and returns its verdict
    expected: object
    probe: bool = False  # a stack probe; see PROBE_* above


class Names:
    """Seeded identifiers that cannot collide with each other, with keywords
    or with corpus class names (every one carries a `Zq`/`zq` prefix)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = set()

    def __call__(self, capital: bool = False) -> str:
        while True:
            tail = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(6))
            name = ("Zq" if capital else "zq") + tail
            if name not in self.used:
                self.used.add(name)
                return name


def _lit(rng: random.Random) -> str:
    return str(rng.randint(10, 99))  # always two digits: one token, same length


def schedule_fuel(depth: int) -> int:
    """The first iterative-deepening fuel (1, 2, 4, ..., MAX_FUEL) that is
    at least `depth`: the fuel a run reports when it needs `depth`."""
    f = 1
    while f < depth and f < MAX_FUEL:
        f *= 2
    return min(f, MAX_FUEL)


# ---------------------------------------------------------------------------
# Source generators


def padding(rng: random.Random, names: Names) -> str:
    """Well-typed client classes with long bodies, nested expressions, calls
    in expression position and `new` in initializers. They name only each
    other, never an owner or rep class, so they change no verdict."""
    classes = [names(True) for _ in range(PAD_CLASSES)]
    g = names()
    meths = [names() for _ in range(PAD_METHODS)]
    out = []
    for ci, cname in enumerate(classes):
        nxt = classes[(ci + 1) % PAD_CLASSES]
        f0, f1 = names(), names()
        lines = [f"class {cname} extends Object {{", f"  int {f0};", f"  int {f1};",
                 f"  int {g}(int {f0}) {{ result := {f0} + {_lit(rng)} }}"]
        for mi, m in enumerate(meths):
            x, y, a, b, c, o = (names() for _ in range(6))
            mn = meths[(mi + 1) % PAD_METHODS]
            lit = lambda: _lit(rng)  # noqa: E731
            templates = [
                lambda: f"{a} := ({a} + ({b} - ({c} + {lit()}))) + (({b} + {lit()}) - ({a} - {lit()}))",
                lambda: f"{b} := self.{mn}({a}, {b} + {lit()}) + {o}.{g}({c})",
                lambda: f"self.{f0} := self.{f1} + ({a} - {lit()})",
                lambda: f"if {a} < {b} then {c} := {c} + {lit()} else {c} := ({c} - {lit()}) + {a} fi",
                lambda: f"while {c} < {a} do {c} := {c} + {lit()} od",
                lambda: f"if self.{g}({a}) < {o}.{g}({b}) then {a} := {b} else {b} := {a} fi",
                lambda: f"self.{f1} := (self.{f0} + {o}.{g}({a} + {lit()})) - {c}",
                lambda: f"{c} := {c} mod ({a} + {lit()})",
            ]
            body = [t() for t in templates for _ in range(PAD_REPEAT)]
            rng.shuffle(body)
            stmts = [
                f"int {a} := ({x} + ({y} - ({x} + {lit()}))) - (({y} + {lit()}) - {x})",
                f"int {b} := self.{g}({a}) + ({a} - {lit()})",
                f"{nxt} {o} := new {nxt}",
                f"int {c} := {o}.{g}({b} + {lit()}) + self.{g}({a})",
                *body,
                f"result := {a} + ({b} + {c})",
            ]
            lines.append(f"  int {m}(int {x}, int {y}) {{")
            lines.append(";\n".join("    " + s for s in stmts))
            lines.append("  }")
        lines.append("}")
        out.append("\n".join(lines))
    return "\n\n".join(out) + "\n"


def long_body(names: Names) -> str:
    cls, out, x = names(True), names(), names()
    stmts = [f"int {x} := 0"] + [f"{x} := {x} + 1"] * (PROBE_STATEMENTS - 2) + [f"self.{out} := {x}"]
    return f"class {cls} extends Object {{\n  int {out};\n  unit main() {{\n    " + ";\n    ".join(stmts) + "\n  }\n}\n"


def deep_parens(names: Names) -> str:
    cls, out = names(True), names()
    expr = "(" * PROBE_PARENS + "1" + ")" * PROBE_PARENS
    return f"class {cls} extends Object {{\n  int {out};\n  unit main() {{ self.{out} := {expr} }}\n}}\n"


def observer_n(base: str, n: int, names: Names) -> str:
    """The ROADMAP observer-N program: `observer_v1.jcore` adding the same
    observer N times, so its final `self.ob.count` is N."""
    i = names()
    target = "obl.add(self.ob);"
    if base.count(target) != 1:
        raise ValueError("observer_v1.jcore no longer has exactly one injection point")
    loop = f"int {i} := 0; while {i} < {n} do obl.add(self.ob); {i} := {i} + 1 od;"
    return base.replace(target, loop)


def down_program(k: int, names: Names) -> Tuple[str, str]:
    """`Main.main` stores `down(k)`, a recursion k calls deep that allocates
    nothing but the receiver; the result is k. Returns the source and the
    name of the field holding the result."""
    d, down, n, out, r = names(True), names(), names(), names(), names()
    return (
        f"class {d} extends Object {{\n"
        f"  int {down}(int {n}) {{\n"
        f"    if {n} = 0 then result := 0 else result := self.{down}({n} - 1) + 1 fi\n"
        f"  }}\n}}\n"
        f"class Main extends Object {{\n  int {out};\n"
        f"  unit main() {{ {d} {r} := new {d}; self.{out} := {r}.{down}({k}) }}\n}}\n"
    ), out


def loop_program(iterations: int, names: Names) -> Tuple[str, str]:
    """An integer loop that makes one call per iteration and allocates
    nothing; the result is the sum 0 + 1 + ... + (iterations - 1). Returns
    the source and the name of the field holding the result."""
    step, s, i, out, p, q = (names() for _ in range(6))
    return (
        f"class Main extends Object {{\n  int {out};\n"
        f"  int {step}(int {p}, int {q}) {{ result := {p} + {q} }}\n"
        f"  unit main() {{\n    int {i} := 0;\n    int {s} := 0;\n"
        f"    while {i} < {iterations} do {s} := self.{step}({s}, {i}); {i} := {i} + 1 od;\n"
        f"    self.{out} := {s}\n  }}\n}}\n"
    ), out


# ---------------------------------------------------------------------------
# Verdicts


def check_verdict(src: str, des) -> str:
    """What `jcore check` decides."""
    ct = jc.build_class_table(jc.parse_and_desugar(src), des)
    return "ok" if jc.check_table(ct).ok else "ill-typed"


def analyze_verdict(src: str, des):
    """What `jcore analyze` decides: ill-typed, or the diagnostic rules."""
    ct = jc.build_class_table(jc.parse_and_desugar(src), des)
    if not jc.check_table(ct).ok:
        return "ill-typed"
    return tuple(sorted(jc.safe_table(ct).rules()))


def _final(result, paths):
    if not result.ok:
        return result.outcome.reason, result.fuel_used, None
    h, eta = result.outcome
    return "ok", result.fuel_used, tuple(corpus.navigate(h, eta, p) for p in paths)


def run_verdict(ct, paths):
    return _final(jc.run(ct, "Main", "main"), paths)


def monitor_verdict(ct, entry_class, entry_method, paths, required):
    """Outcome, fuel and finals plus the monitor facet the pinned record
    constrains: no violation at all for 'clean', else which of the
    required kinds were reported."""
    result, violations = jc.run_with_monitor(ct, entry_class, entry_method, checkpoints="every")
    kinds = {v.kind for v in violations}
    if required == "clean":
        seen = "clean" if not kinds else tuple(sorted(kinds))
    else:
        seen = tuple(sorted(kinds & set(required)))
    return _final(result, paths) + (seen,)


def _expected_monitor(required):
    return "clean" if required == "clean" else tuple(sorted(required))


# ---------------------------------------------------------------------------
# Workloads: each returns (ops, seconds spent generating source text)


class _GenClock:
    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        self.seconds += time.perf_counter() - t
        return out


def frontend(seed: int) -> Tuple[List[Op], float]:
    """`check` and `analyze` on every corpus program padded with generated
    client classes, plus `check` on the two syntactic stack probes."""
    rng = random.Random(seed)
    names = Names(rng)
    gen = _GenClock()
    ops = []
    for r in corpus.load_corpus():
        src = r.source() + "\n" + gen(padding, rng, names)
        des = r.designations()
        ops.append(Op(f"check/{r.name}", lambda s=src, d=des: check_verdict(s, d), r.check))
        expected = tuple(sorted(r.analyze)) if r.check == "ok" else "ill-typed"
        ops.append(Op(f"analyze/{r.name}", lambda s=src, d=des: analyze_verdict(s, d), expected))
    body = gen(long_body, names)
    parens = gen(deep_parens, names)
    ops.append(Op(f"check/body-{PROBE_STATEMENTS}", lambda: check_verdict(body, None), "ok", probe=True))
    ops.append(Op(f"check/parens-{PROBE_PARENS}", lambda: check_verdict(parens, None), "ok", probe=True))
    rng.shuffle(ops)
    return ops, gen.seconds


def interp(seed: int) -> Tuple[List[Op], float]:
    """Plain iterative-deepening `run`: observer-N on a growing heap, and
    call-heavy programs (down(k), an integer loop) on a tiny heap."""
    rng = random.Random(seed)
    names = Names(rng)
    gen = _GenClock()
    ops = []
    rec = corpus.corpus_record("observer_v1")
    base = rec.source()
    (entry,) = rec.entries
    for n in OBSERVER_SIZES_RUN:
        ct = jc.build_class_table(jc.parse_and_desugar(gen(observer_n, base, n, names)), rec.designations())
        ops.append(Op(f"observer-{n}", lambda c=ct: run_verdict(c, ["self.ob.count"]),
                      (entry.outcome, entry.min_fuel, (n,))))
    for k in PROBE_DEPTHS:
        src, out = gen(down_program, k, names)
        ct = jc.build_class_table(jc.parse_and_desugar(src))
        # down(k) makes k + 1 nested calls, so it needs fuel k + 1
        ops.append(Op(f"down-{k}", lambda c=ct, o=out: run_verdict(c, [f"self.{o}"]),
                      ("ok", schedule_fuel(k + 1), (k,)), probe=k > PROBE_DEPTHS[0]))
    src, out = gen(loop_program, LOOP_ITERATIONS, names)
    ct = jc.build_class_table(jc.parse_and_desugar(src))
    total = LOOP_ITERATIONS * (LOOP_ITERATIONS - 1) // 2
    ops.append(Op(f"loop-{LOOP_ITERATIONS}", lambda: run_verdict(ct, [f"self.{out}"]), ("ok", 1, (total,))))
    rng.shuffle(ops)
    return ops, gen.seconds


def monitor(seed: int) -> Tuple[List[Op], float]:
    """`run_with_monitor` with a checkpoint after every command: observer-N
    plus every corpus entry with its pinned monitor record, some of which
    are violations."""
    rng = random.Random(seed)
    names = Names(rng)
    gen = _GenClock()
    ops = []
    rec = corpus.corpus_record("observer_v1")
    base = rec.source()
    (entry,) = rec.entries
    for n in OBSERVER_SIZES_MONITOR:
        ct = jc.build_class_table(jc.parse_and_desugar(gen(observer_n, base, n, names)), rec.designations())
        ops.append(Op(f"monitor/observer-{n}",
                      lambda c=ct: monitor_verdict(c, "Main", "main", ["self.ob.count"], entry.monitor),
                      (entry.outcome, entry.min_fuel, (n,), _expected_monitor(entry.monitor))))
    for r in corpus.load_corpus():
        ct = r.build()
        for e in r.entries:
            paths = [p for p, _ in e.finals]
            finals = tuple(v for _, v in e.finals) if e.outcome == "ok" else None
            ops.append(Op(f"monitor/{r.name}.{e.entry_class}.{e.entry_method}",
                          lambda c=ct, e=e, p=paths: monitor_verdict(c, e.entry_class, e.entry_method, p, e.monitor),
                          (e.outcome, e.min_fuel, finals, _expected_monitor(e.monitor))))
    rng.shuffle(ops)
    return ops, gen.seconds


def harness(seed: int) -> Tuple[List[Op], float]:
    """Every equivalence and simtest manifest with its pinned verdict."""
    rng = random.Random(seed)
    ops = []
    for path, verdict in corpus.equiv_expectations():
        m = equivalence.load_manifest(path)
        ops.append(Op(f"equiv/{_stem(path)}", lambda m=m: equivalence.run_manifest(m).kind, verdict))
    for path, ok in corpus.simtest_expectations():
        m = coupling.load_sim_manifest(path)
        ops.append(Op(f"simtest/{_stem(path)}", lambda m=m: coupling.run_sim_manifest(m).ok, ok))
    rng.shuffle(ops)
    return ops, 0.0


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


WORKLOADS = {"frontend": frontend, "interp": interp, "monitor": monitor, "harness": harness}
