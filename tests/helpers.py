"""Shared oracles and generators: brute-force partition search, typed
bijection enumeration, random heap/state construction, the confine_heap
oracle for the monitor's followed partition, iterative deepening as the
oracle for single-execution `run` and `client_equiv`, per-fuel replay as
the oracle for the simulation harness's prefix memo, the tree-walking
interpreter as the oracle for the compiled one, and the mangled and noise
sources the tokenizer and parser are fuzzed with. Also the checks of
closed heaps and stores, typed values and heaps, the admissible-partition
clauses and identity extension, which the paper states about every state and
the tests assert about the states they reach; the relations on types and
methods the tool never asks (`incomparable`, `method_depth`); the entries
that run one command, expression or constructor on a `Runtime`; and the
loader of the benchmark's program generators."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import itertools
import math
import os
import random
import re
import sys
from typing import Dict, List, Optional

from jcore import ast as A
from jcore.ast import OBJECT, ClassType, NullType, PrimType
from jcore.classtable import ClassTable, Designations, build_class_table
from jcore.confine import ConfinementViolation, confine_heap
from jcore.corpus import load_corpus
from jcore.coupling import (
    BasicCoupling, CouplingFailure, CouplingReport, VectorResult, _exec_step, _own_methods_of,
    check_establishment, generate_scripts, induced_heap_coupling, root_sigma,
)
from jcore.desugar import parse_and_desugar
from jcore.equivalence import (
    Distinguished, EquivVerdict, canonical_bijection, own_free, value_equiv,
)
from jcore.interp import (
    ABORT, CAST_FAILURE, FUEL_EXHAUSTED, IT, NIL_DEREF, Bottom, Heap, InterpHooks, Location, Runtime,
    RunResult, Store, _Stop, _child, _compile, collect, default_value, fresh, run, value_kind, values_equal,
)


def value_in_type(ct: ClassTable, v, t) -> bool:
    """The typed-value relation: `v` is a value of type `t`."""
    if isinstance(t, PrimType):
        return value_kind(v) == t.name
    if isinstance(t, NullType):
        return v is None
    if v is None:
        return True
    return isinstance(v, Location) and ct.subtype_names(v.class_name, t.name)


def heap_closed(h: Heap) -> bool:
    """Every location a field of `h` holds is allocated in `h`."""
    for state in h.values():
        for v in state.values():
            if isinstance(v, Location) and v not in h:
                return False
    return True


def store_closed(h: Heap, eta: Store) -> bool:
    """Every location the store `eta` holds is allocated in `h`."""
    return all(not isinstance(v, Location) or v in h for v in eta.values())


def heap_well_typed(ct: ClassTable, h: Heap) -> bool:
    """Every object of `h` has exactly the fields of its class, each holding
    a value of the field's declared type."""
    for loc, state in h.items():
        fields = ct.fields(loc.class_name)
        if set(state) != {f for f, _ in fields}:
            return False
        for f, t in fields:
            if not value_in_type(ct, state[f], t):
                return False
    return True


def partition_clauses_hold(ct: ClassTable, h: Heap, assignment: Dict[Location, int], owners: List[Location]) -> bool:
    """Check the four confinement clauses for an explicit rep->island map.
    Used by the brute-force oracle and the soundness assertions."""
    own = ct.designations.own
    private = {f for f, _ in ct.dfields(own)}
    island_of = dict(assignment)
    for i, o in enumerate(owners):
        island_of[o] = i
    for loc in h:
        role = ct.role(loc.class_name)
        for f, v in h[loc].items():
            if not isinstance(v, Location):
                continue
            vrole = ct.role(v.class_name)
            if role == "client" and vrole == "rep":
                return False
            if role == "owner" and vrole == "rep":
                if island_of[v] != island_of[loc] or f not in private:
                    return False
            if role == "rep" and vrole in ("rep", "owner"):
                if island_of[v] != island_of[loc]:
                    return False
    return True


def identity_extension_check(ct_a: ClassTable, ct_b: ClassTable, sigma, state_a, state_b):
    """Related states whose collected forms are owner-free must be equal up to
    the bijection; checked by the canonical traversal seeded with sigma: each
    pair `(a, b)` of sigma is an extra root `<seed a>`, bound to `a` on one
    side and to `b` on the other, which sorts before the store's names."""
    ha, ea = collect(*state_a)
    hb, eb = collect(*state_b)
    if not own_free(ct_a, ha, ea) or not own_free(ct_b, hb, eb):
        return "precondition", "an owner is reachable in a collected state"
    seed = [(a, b) for a, b in sigma.items() if a in ha and b in hb]
    ea = {**{f"<seed {a}>": a for a, _ in seed}, **ea}
    eb = {**{f"<seed {a}>": b for a, b in seed}, **eb}
    out = canonical_bijection(ct_a, (ha, ea), (hb, eb))
    if isinstance(out, Distinguished):
        return "fail", f"{out.path}: {out.message}"
    return "ok", out


def incomparable(ct: ClassTable, t, u) -> bool:
    """Neither type is a subtype of the other."""
    return not ct.subtype(t, u) and not ct.subtype(u, t)


def method_depth(ct: ClassTable, mname: str, cname: str) -> Optional[int]:
    """How many proper ancestors of `cname` below Object also have `mname`;
    None when `cname` has no such method."""
    if ct.resolve_method(mname, cname) is None:
        return None
    return sum(mname in ct.method_names(c) for c in ct.ancestors(cname)[1:-1])


# The semantics of expressions, commands and constructors as entries of a
# `Runtime`. Like its public entries, a command or a constructor runs on a
# copy of the caller's heap, and a command on a copy of the caller's store;
# the ad-hoc nodes are compiled for the call only, so they leave no code on
# the table.


def exec_command(rt: Runtime, gamma, cmd, h: Heap, eta: Store, fuel: int):
    c = _child(cmd, gamma, rt.hooks is not None)

    def body(h):
        rt.steps += 1
        return h, c(rt, h, dict(eta), fuel)  # compiled code updates the store it is given

    return rt._entry(h, body)


def eval_expr(rt: Runtime, h: Heap, eta: Store, e):
    """Expressions write nothing, so this entry needs no heap copy."""
    try:
        return _compile(e)(rt, h, eta)
    except _Stop as stop:
        return stop.bottom


def exec_constructor(rt: Runtime, class_name: str, h: Heap, loc: Location):
    """Run the constructor chain of `class_name` on `loc`, root first."""

    def body(h):
        rt._exec_constructor(rt._class(class_name)[1], h, loc)
        return h

    return rt._entry(h, body)


def _cls(name, sup, fields, methods=()):
    return A.ClassDecl(name, sup, tuple(fields), A.Skip(), tuple(methods))


def roles_table():
    """Synthetic table with owner/rep/client classes and enough class-typed
    fields to draw every kind of edge a random heap needs."""
    c = A.ClassType
    decls = [
        _cls("Own", "Object", [("po", c("Own")), ("pr", c("Rep")), ("pc", c("Cli"))]),
        _cls("SubOwn", "Own", [("sr", c("Rep")), ("sc", c("Cli"))]),
        _cls("Rep", "Object", [("ro", c("Own")), ("rr", c("Rep")), ("rc", c("Cli"))]),
        _cls("SubRep", "Rep", []),
        _cls("Cli", "Object", [("co", c("Own")), ("cr", c("Rep")), ("cc", c("Cli")), ("n", A.INT)]),
        _cls("Cli2", "Cli", []),
    ]
    return build_class_table(decls, Designations("Own", "Rep"))


def random_heap(ct, rng: random.Random, max_objects: int = 8):
    """Random well-typed closed heap over the roles table."""
    classes = list(ct.decls)
    n = rng.randint(0, max_objects)
    locs = []
    counters = {}
    for _ in range(n):
        cname = rng.choice(classes)
        idx = counters.get(cname, 0)
        counters[cname] = idx + 1
        locs.append(Location(cname, idx))
    h = {}
    for loc in locs:
        state = {}
        for f, t in ct.fields(loc.class_name):
            if isinstance(t, A.ClassType):
                candidates = [l for l in locs if ct.subtype_names(l.class_name, t.name)]
                state[f] = rng.choice(candidates) if candidates and rng.random() < 0.55 else None
            elif t == A.INT:
                state[f] = rng.randint(0, 3)
            elif t == A.BOOL:
                state[f] = rng.random() < 0.5
            else:
                state[f] = IT
        h[loc] = state
    return h


def brute_force_confining(ct, h):
    """Enumerate every admissible partition (reps -> owner islands); return a
    satisfying rep->island assignment, or None when no confining partition
    exists."""
    owners = sorted(l for l in h if ct.is_owner_class(l.class_name))
    reps = sorted(l for l in h if ct.is_rep_class(l.class_name))
    if reps and not owners:
        return None
    k = max(len(owners), 1)
    for assignment in itertools.product(range(k), repeat=len(reps)):
        amap = dict(zip(reps, assignment))
        if partition_clauses_hold(ct, h, amap, owners):
            return amap
    return None


def all_typed_bijections(locs_a, locs_b, forced=None):
    """Yield every type-preserving bijection between the two location sets,
    optionally constrained to contain the `forced` pairs."""
    forced = forced or {}
    by_class_a, by_class_b = {}, {}
    for l in locs_a:
        by_class_a.setdefault(l.class_name, []).append(l)
    for l in locs_b:
        by_class_b.setdefault(l.class_name, []).append(l)
    if set(by_class_a) != set(by_class_b):
        return
    classes = sorted(by_class_a)
    if any(len(by_class_a[c]) != len(by_class_b[c]) for c in classes):
        return
    per_class = []
    for c in classes:
        src = sorted(by_class_a[c])
        perms = []
        for perm in itertools.permutations(sorted(by_class_b[c])):
            mapping = dict(zip(src, perm))
            if all(mapping.get(a) == b for a, b in forced.items() if a in mapping):
                perms.append(mapping)
        per_class.append(perms)
    for combo in itertools.product(*per_class):
        sigma = {}
        for mapping in combo:
            sigma.update(mapping)
        if all(sigma.get(a) == b for a, b in forced.items()):
            yield sigma


def brute_force_state_bijection(ct, state_a, state_b):
    """Search all typed bijections equating two collected states."""
    h_a, eta_a = state_a
    h_b, eta_b = state_b
    if set(eta_a) != set(eta_b):
        return None
    for sigma in all_typed_bijections(h_a, h_b):
        if not all(value_equiv(sigma, eta_a[x], eta_b[x]) for x in eta_a):
            continue
        ok = True
        for l in h_a:
            for f, v in h_a[l].items():
                if not value_equiv(sigma, v, h_b[sigma[l]][f]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return sigma
    return None


def client_table():
    """Small client-only table for random owner-free states."""
    c = A.ClassType
    decls = [
        _cls("P", "Object", [("a", c("P")), ("b", c("Q")), ("n", A.INT)]),
        _cls("Q", "P", [("flag", A.BOOL)]),
        _cls("Own", "Object", []),
        _cls("Rep", "Object", []),
    ]
    return build_class_table(decls, Designations("Own", "Rep"))


def random_client_state(ct, rng: random.Random, max_locs: int = 6):
    """Random collected owner-free state over the client table."""
    classes = ["P", "Q"]
    n = rng.randint(1, max_locs)
    locs = []
    counters = {}
    for _ in range(n):
        cname = rng.choice(classes)
        idx = counters.get(cname, 0)
        counters[cname] = idx + 1
        locs.append(Location(cname, idx))
    h = {}
    for loc in locs:
        state = {}
        for f, t in ct.fields(loc.class_name):
            if isinstance(t, A.ClassType):
                candidates = [l for l in locs if ct.subtype_names(l.class_name, t.name)]
                state[f] = rng.choice(candidates) if candidates and rng.random() < 0.6 else None
            elif t == A.INT:
                state[f] = rng.randint(0, 2)
            elif t == A.BOOL:
                state[f] = rng.random() < 0.5
            else:
                state[f] = IT
        h[loc] = state
    eta = {"self": rng.choice(locs)}
    for i in range(rng.randint(0, 2)):
        eta[f"x{i}"] = rng.choice(locs + [None])
    return collect(h, eta)


def rename_state(ct, state, rng: random.Random):
    """Apply a random per-class location renaming: an equivalent copy."""
    h, eta = state
    by_class = {}
    for l in h:
        by_class.setdefault(l.class_name, []).append(l)
    mapping = {}
    for cname, locs in by_class.items():
        shift = rng.randint(0, 3)
        indices = rng.sample(range(len(locs) + shift), len(locs))
        for l, idx in zip(sorted(locs), indices):
            mapping[l] = Location(cname, idx)

    def rn(v):
        return mapping[v] if isinstance(v, Location) else v

    h2 = {mapping[l]: {f: rn(v) for f, v in st.items()} for l, st in h.items()}
    eta2 = {x: rn(v) for x, v in eta.items()}
    return h2, eta2


def observer_n(corpus, n):
    """observer_v1 adding the same observer n times in one loop."""
    rec = corpus["observer_v1"]
    loop = f"int k := 0; while k < {n} do obl.add(self.ob); k := k + 1 od;"
    src = rec.source().replace("obl.add(self.ob);", loop)
    return build_class_table(parse_and_desugar(src), rec.designations())


def forced_map(partition):
    """rep -> owner for the forced reps of a Partition."""
    return {r: o for o, reps in partition.islands for r in reps}


def assert_partition_agrees(ct, h, got):
    """`got`, a monitor's partition of `h`, must be confine_heap's verdict:
    the same violation, or the same owners and forced reps."""
    want = confine_heap(ct, h)
    if isinstance(want, ConfinementViolation):
        assert got == want, (got, want)
    else:
        assert not isinstance(got, ConfinementViolation), (got, h)
        assert got.forced() == forced_map(want), h
        assert got.owners == len(want.islands), h


class PartitionOracle(InterpHooks):
    """Chained after a ConfinementMonitor: at each of the monitor's
    checkpoints, its partition of the heap must agree with confine_heap.
    `checks` counts the checkpoints compared."""

    def __init__(self, ct, monitor):
        self.ct = ct
        self.monitor = monitor
        self.checks = 0

    def _agree(self, h):
        assert_partition_agrees(self.ct, h, self.monitor.partition(h))
        self.checks += 1

    def after_command(self, gamma, cmd, outcome):
        if self.monitor.checkpoints != "every" or isinstance(outcome, Bottom):
            return
        if not isinstance(cmd, (A.Seq, A.If, A.While)):
            self._agree(outcome[0])

    def before_call(self, caller_gamma, callee_class, callee_store, heap, site, mscoped):
        self._agree(heap)

    def after_call(self, caller_gamma, callee_class, callee_store, outcome, site, mscoped):
        if not isinstance(outcome, Bottom):
            self._agree(outcome[0])


# ---------------------------------------------------------------------------
# Iterative deepening: re-execute from scratch at fuel 1, 2, 4, ..., budget


def fuel_schedule(max_fuel):
    f = 1
    while f < max_fuel:
        yield f
        f *= 2
    yield max_fuel


def _undetermined(outcome):
    return isinstance(outcome, Bottom) and outcome.is_fuel()


def deepening_run(ct, entry_class, entry_method, max_fuel=1024, loop_cap=100000, hooks=None):
    """Oracle for `run`: one execution at each fuel of the schedule, all
    sharing `hooks`, keeping the first outcome that is not a fuel bottom (or
    the last) with that attempt's fuel and steps. A bottom while constructing
    the entry object, the same at every fuel, settles the first attempt."""
    constructs = not isinstance(Runtime(ct, loop_cap=loop_cap).new_object(entry_class, {}), Bottom)
    for fuel in fuel_schedule(max_fuel):
        res = run(ct, entry_class, entry_method, max_fuel=fuel, loop_cap=loop_cap, hooks=hooks)
        if not (constructs and _undetermined(res.outcome)):
            break
    return RunResult(res.outcome, fuel, steps=res.steps)


def deepening_equiv(ct_a, ct_b, entry_class, entry_method, max_fuel=1024, loop_cap=100000):
    """Oracle for `client_equiv` on comparable tables: both sides at each
    fuel of the schedule until neither is a fuel bottom."""
    for fuel in fuel_schedule(max_fuel):
        out_a = run(ct_a, entry_class, entry_method, max_fuel=fuel, loop_cap=loop_cap).outcome
        out_b = run(ct_b, entry_class, entry_method, max_fuel=fuel, loop_cap=loop_cap).outcome
        if _undetermined(out_a) or _undetermined(out_b):
            continue
        bot_a = out_a if isinstance(out_a, Bottom) else None
        bot_b = out_b if isinstance(out_b, Bottom) else None
        if bot_a and bot_b:
            return EquivVerdict("equivalent", fuel, witness=f"both bottom: {bot_a.reason} / {bot_b.reason}")
        if bot_a or bot_b:
            return EquivVerdict(
                "distinguished", fuel,
                witness=f"one side bottoms ({(bot_a or bot_b).reason}), the other terminates",
            )
        ha, ea = collect(*out_a)
        hb, eb = collect(*out_b)
        if not own_free(ct_a, ha, ea) or not own_free(ct_b, hb, eb):
            return EquivVerdict("owners-reachable", fuel, witness="an owner is reachable in a collected final state")
        out = canonical_bijection(ct_a, (ha, ea), (hb, eb))
        if isinstance(out, Distinguished):
            return EquivVerdict("distinguished", fuel, witness=f"{out.path}: {out.message}")
        return EquivVerdict("equivalent", fuel, sigma=tuple(sorted(out.items())))
    return EquivVerdict("inconclusive", max_fuel, witness="fuel exhausted on at least one side at the budget")


def run_facts(res, violations=()):
    """What a run reports: outcome (a bottom with its stack), fuel, steps and
    the rendered violations."""
    out = res.outcome
    if isinstance(out, Bottom):
        out = (out.reason, out.detail, out.stack)
    return out, res.fuel_used, res.steps, [v.render() for v in violations]


# ---------------------------------------------------------------------------
# Per-fuel replay: every (script, fuel) vector from empty heaps


def replay_vector(ct_a: ClassTable, ct_b: ClassTable, bc: BasicCoupling, script, fuel: int) -> VectorResult:
    """Oracle for `run_vector`: execute the script from empty heaps at `fuel`,
    checking the coupling after every step."""
    rt_a, rt_b = Runtime(ct_a), Runtime(ct_b)
    h_a: Heap = {}
    h_b: Heap = {}
    roots_a: Store = {}
    roots_b: Store = {}
    methods = _own_methods_of(ct_a, script)
    for i, st in enumerate(script):
        bot_a, h_a = _exec_step(rt_a, h_a, roots_a, st, fuel)
        bot_b, h_b = _exec_step(rt_b, h_b, roots_b, st, fuel)
        if bot_a is not None and bot_b is not None:
            return VectorResult(script, fuel, "pass", i, "both sides bottom", methods)
        if (bot_a is None) != (bot_b is None):
            side = "A" if bot_a is not None else "B"
            reason = (bot_a or bot_b).reason
            return VectorResult(
                script, fuel, "fail", i,
                f"outcomes unrelated: side {side} bottoms ({reason}), the other side terminates",
                methods,
            )
        sigma = root_sigma(ct_a, ct_b, roots_a, roots_b, h_a, h_b)
        if isinstance(sigma, CouplingFailure):
            return VectorResult(script, fuel, "fail", i, f"{sigma.where}: {sigma.message}", methods)
        out = induced_heap_coupling(ct_a, ct_b, sigma, h_a, h_b, bc)
        if isinstance(out, CouplingFailure):
            return VectorResult(script, fuel, "fail", i, f"{out.where}: {out.message}", methods)
    return VectorResult(script, fuel, "pass", len(script) - 1, "", methods)


def replay_simulation(ct_a, ct_b, bc, fuels, max_len, max_scripts, replayed=None):
    """Oracle for `test_simulation` with its default owner classes: the same
    report, each vector from `replay_vector`. `replayed`, a dict keyed by
    (script, fuel), keeps vectors for the next call; a vector whose replay
    raised is not kept."""
    replayed = {} if replayed is None else replayed
    own = ct_a.designations.own
    owner_classes = [own] + [c for c in sorted(ct_a.decls) if c != own and ct_a.subtype_names(c, own)][:1]
    establishment, vectors = [], []
    for oc in owner_classes:
        try:
            ok, msg = check_establishment(ct_a, ct_b, bc, oc)
        except Exception as exc:
            ok, msg = False, f"internal error: {exc}"
        establishment.append((oc, ok, msg))
        for script in generate_scripts(ct_a, oc, max_len=max_len, max_scripts=max_scripts):
            for fuel in fuels:
                v = replayed.get((script, fuel))
                if v is None:
                    try:
                        v = replayed[script, fuel] = replay_vector(ct_a, ct_b, bc, script, fuel)
                    except Exception as exc:
                        v = VectorResult(script, fuel, "fail", -1, f"internal error: {exc}")
                vectors.append(v)
    return CouplingReport(bc.name, establishment, vectors)


def first_free_tmp(body) -> int:
    """Oracle for the parser's `first_tmp`: one past the largest N of a
    `$tmpN` name in a surface body, by a walk of its tree that skips spans."""
    nums, stack = [-1], [body]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is str and "$" in node:
            nums += map(int, re.findall(r"\$tmp(\d+)", node))
        elif t is tuple:
            stack.extend(node)
        elif dataclasses.is_dataclass(node):
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return max(nums) + 1


def walk_commands_rec(cmd, gamma):
    """Oracle for `ast.walk_commands`: the same pairs from a recursive walk."""
    yield cmd, gamma
    if isinstance(cmd, A.LocalBlock):
        yield from walk_commands_rec(cmd.body, {**gamma, cmd.name: cmd.var_type})
    elif isinstance(cmd, A.If):
        yield from walk_commands_rec(cmd.then_cmd, gamma)
        yield from walk_commands_rec(cmd.else_cmd, gamma)
    elif isinstance(cmd, A.While):
        yield from walk_commands_rec(cmd.body, gamma)
    elif isinstance(cmd, A.Seq):
        for it in cmd.items:
            yield from walk_commands_rec(it, gamma)


def exprs_of_command(cmd):
    """Immediate constituent expressions of a single command node."""
    if isinstance(cmd, A.Assign):
        return [cmd.expr]
    if isinstance(cmd, A.FieldAssign):
        return [cmd.target, cmd.expr]
    if isinstance(cmd, A.CallAssign):
        return [cmd.receiver, *cmd.args]
    if isinstance(cmd, A.SuperCallAssign):
        return list(cmd.args)
    if isinstance(cmd, A.LocalBlock):
        return [cmd.init]
    if isinstance(cmd, (A.If, A.While)):
        return [cmd.cond]
    return []


def walk_exprs_rec(expr):
    """Oracle for `ast.walk_exprs`: the same nodes from a recursive walk."""
    yield expr
    if isinstance(expr, (A.FieldAccess, A.InstanceTest, A.Cast)):
        yield from walk_exprs_rec(expr.target)
    elif isinstance(expr, (A.Eq, A.IntOp)):
        yield from walk_exprs_rec(expr.left)
        yield from walk_exprs_rec(expr.right)
    elif isinstance(expr, A.CallExpr):
        yield from walk_exprs_rec(expr.receiver)
        for a in expr.args:
            yield from walk_exprs_rec(a)
    elif isinstance(expr, A.SuperCallExpr):
        for a in expr.args:
            yield from walk_exprs_rec(a)


def bench_workloads():
    """The module `bench/workloads.py`, which generates the benchmark's
    programs, loaded once."""
    name = "bench_workloads"
    if name not in sys.modules:
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)  # its dataclass needs it
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def mangled_sources(count: int = 400, seed: int = 31):
    """`count` corpus programs, each cut short, with one punctuation character
    inserted or one character deleted, or with two words swapped."""
    rng = random.Random(seed)
    sources = [r.source() for r in load_corpus()]
    for _ in range(count):
        src = rng.choice(sources)
        mode = rng.randrange(4)
        if mode == 0:
            cut = rng.randrange(len(src))
            src = src[:cut]
        elif mode == 1:
            pos = rng.randrange(len(src))
            src = src[:pos] + rng.choice(";{}():=<+-!") + src[pos:]
        elif mode == 2:
            pos = rng.randrange(len(src))
            src = src[:pos] + src[pos + 1:]
        else:
            words = src.split()
            if len(words) > 2:
                a, b = rng.randrange(len(words)), rng.randrange(len(words))
                words[a], words[b] = words[b], words[a]
            src = " ".join(words)
        yield src


def noise_sources(count: int = 400, seed: int = 97):
    """`count` random strings over keyword letters, punctuation, digits and
    non-ASCII letters and numerals, each once alone and once more in
    expression position."""
    rng = random.Random(seed)
    alphabet = "classextendmodulnifwhoabrtskp {}();:=!<+-$0123456789\n²½é٣"
    for _ in range(count):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randrange(120)))
        yield src
        yield "class C extends Object { unit m() { result := " + src


# ---------------------------------------------------------------------------
# The tree-walking interpreter: the oracle for the compiled `Runtime`


class TreeWalkRuntime:
    def __init__(self, ct: ClassTable, loop_cap: int = 100000, hooks: Optional[InterpHooks] = None):
        self.ct = ct
        self.loop_cap = loop_cap
        self.hooks = hooks
        self._stack: List[str] = []
        self._next: Dict[str, int] = {}  # per class: no free index below this in the entry's heap
        self.steps = 0
        self.low_fuel = math.inf  # least fuel at which any call ran its body

    def _stop(self, reason, detail=""):
        return _Stop(Bottom(reason, detail, tuple(self._stack)))

    def _entry(self, h: Heap, body):
        """Run `body` on a copy of the caller's heap with the cursors reset;
        a bottom raised inside is the result."""
        self._next = {}
        try:
            return body({loc: dict(state) for loc, state in h.items()})
        except _Stop as stop:
            return stop.bottom

    # -- public entries: each works on its own copy of the caller's heap

    def new_object(self, class_name: str, h: Heap):
        return self._entry(h, lambda h: (h, self._new_object(class_name, h)))

    def invoke(self, loc: Location, mname: str, args, h: Heap, fuel: int, start_class: Optional[str] = None):
        return self._entry(h, lambda h: (h, self._invoke(loc, mname, args, h, fuel, start_class)))

    # Inside an entry the heap is updated in place: the steps below return
    # only the new store or value, and raise `_Stop` at a bottom.

    def _eval(self, h: Heap, eta: Store, e):
        ct = self.ct
        if isinstance(e, A.Var):
            return eta[e.name]
        if isinstance(e, A.NullLit):
            return None
        if isinstance(e, A.BoolLit):
            return e.value
        if isinstance(e, A.IntLit):
            return e.value
        if isinstance(e, A.UnitLit):
            return IT
        if isinstance(e, A.Eq):
            return values_equal(self._eval(h, eta, e.left), self._eval(h, eta, e.right))
        if isinstance(e, A.IntOp):
            d1, d2 = self._eval(h, eta, e.left), self._eval(h, eta, e.right)
            if e.op == "+":
                return d1 + d2
            if e.op == "-":
                return d1 - d2
            if e.op == "mod":
                return d1 % d2 if d2 != 0 else 0
            return d1 < d2
        if isinstance(e, A.FieldAccess):
            l = self._eval(h, eta, e.target)
            if l is None:
                raise self._stop(NIL_DEREF, f"field {e.fieldname} of null")
            assert l in h, "expression produced a dangling location"
            return h[l][e.fieldname]
        if isinstance(e, A.Cast):
            l = self._eval(h, eta, e.target)
            if l is None or ct.subtype_names(l.class_name, e.class_name):
                return l
            raise self._stop(CAST_FAILURE, f"{l.class_name} is not a {e.class_name}")
        if isinstance(e, A.InstanceTest):
            l = self._eval(h, eta, e.target)
            return l is not None and ct.subtype_names(l.class_name, e.class_name)
        raise TypeError(f"not a core expression: {e!r}")

    # -- construction

    def _new_object(self, class_name: str, h: Heap) -> Location:
        loc = fresh(class_name, h, self._next.get(class_name, 0))
        self._next[class_name] = loc.index + 1
        h[loc] = {f: default_value(t) for f, t in self.ct.fields(class_name)}
        if self.hooks:
            self.hooks.after_alloc(h, loc)
        self._exec_constructor(class_name, h, loc)
        return loc

    def _exec_constructor(self, class_name: str, h: Heap, loc: Location) -> Heap:
        sup = self.ct.super_of(class_name)
        if sup is not None and sup != OBJECT:
            self._exec_constructor(sup, h, loc)
        gamma = {"self": ClassType(class_name)}
        self._stack.append(f"{class_name}.con")
        try:
            self._exec_command(gamma, self.ct.decls[class_name].constructor, h, {"self": loc}, 0)
        finally:
            self._stack.pop()
        return h

    # -- method invocation (fuel j: body runs with fuel j-1)

    def _invoke(self, loc: Location, mname: str, args, h: Heap, fuel: int, start_class: Optional[str] = None):
        if fuel <= 0:
            raise self._stop(FUEL_EXHAUSTED, f"call to {mname}")
        if fuel < self.low_fuel:
            self.low_fuel = fuel
        start = start_class or loc.class_name
        resolved = self.ct.resolve_method(mname, start)
        assert resolved is not None, f"unresolvable method {mname} on {start}"
        decl_class, m = resolved
        eta = {x: v for (x, _), v in zip(m.params, args)}
        eta["self"] = loc
        eta["result"] = default_value(m.return_type)
        gamma = {x: t for x, t in m.params}
        gamma["self"] = ClassType(decl_class)
        gamma["result"] = m.return_type
        self._stack.append(f"{decl_class}.{mname}")
        try:
            return self._exec_command(gamma, m.body, h, eta, fuel - 1)["result"]
        finally:
            self._stack.pop()

    def _call(self, gamma, cmd, h, eta, fuel, loc, start_class, mscoped):
        args = [self._eval(h, eta, a) for a in cmd.args]
        if fuel <= 0:
            raise self._stop(FUEL_EXHAUSTED, f"call to {cmd.method}")
        if not self.hooks:
            return self._invoke(loc, cmd.method, args, h, fuel, start_class)
        callee_class = start_class or loc.class_name
        resolved = self.ct.resolve_method(cmd.method, callee_class)
        pars = [x for x, _ in resolved[1].params] if resolved else []
        callee_store = dict(zip(pars, args))
        callee_store["self"] = loc
        self.hooks.before_call(gamma, callee_class, callee_store, h, cmd, mscoped)
        try:
            d = self._invoke(loc, cmd.method, args, h, fuel, start_class)
        except _Stop as stop:
            self.hooks.after_call(gamma, callee_class, callee_store, stop.bottom, cmd, mscoped)
            raise
        self.hooks.after_call(gamma, callee_class, callee_store, (h, d), cmd, mscoped)
        return d

    # -- commands

    def _exec_command(self, gamma, cmd, h: Heap, eta: Store, fuel: int) -> Store:
        self.steps += 1
        if not self.hooks:
            return self._exec(gamma, cmd, h, eta, fuel)
        try:
            eta = self._exec(gamma, cmd, h, eta, fuel)
        except _Stop as stop:
            self.hooks.after_command(gamma, cmd, stop.bottom)
            raise
        self.hooks.after_command(gamma, cmd, (h, eta))
        return eta

    def _exec(self, gamma, cmd, h, eta, fuel):
        ct = self.ct
        if isinstance(cmd, A.Skip):
            return eta
        if isinstance(cmd, A.Abort):
            raise self._stop(ABORT)
        if isinstance(cmd, A.Assign):
            return {**eta, cmd.name: self._eval(h, eta, cmd.expr)}
        if isinstance(cmd, A.FieldAssign):
            l = self._eval(h, eta, cmd.target)
            if l is None:
                raise self._stop(NIL_DEREF, f"update of field {cmd.fieldname} of null")
            d = self._eval(h, eta, cmd.expr)
            if self.hooks:
                self.hooks.before_write(h, l, cmd.fieldname, d)
            h[l][cmd.fieldname] = d
            return eta
        if isinstance(cmd, A.NewAssign):
            return {**eta, cmd.name: self._new_object(cmd.class_name, h)}
        if isinstance(cmd, A.CallAssign):
            l = self._eval(h, eta, cmd.receiver)
            if l is None:
                raise self._stop(NIL_DEREF, f"call of {cmd.method} on null")
            d = self._call(gamma, cmd, h, eta, fuel, l, None, ct.mscope(cmd.method, l.class_name))
            return {**eta, cmd.name: d}
        if isinstance(cmd, A.SuperCallAssign):
            sup = ct.super_of(gamma["self"].name)
            d = self._call(gamma, cmd, h, eta, fuel, eta["self"], sup, ct.mscope(cmd.method, sup))
            return {**eta, cmd.name: d}
        if isinstance(cmd, A.LocalBlock):
            eta1 = {**eta, cmd.name: self._eval(h, eta, cmd.init)}
            gamma1 = {**gamma, cmd.name: cmd.var_type}
            out = dict(self._exec_command(gamma1, cmd.body, h, eta1, fuel))  # a hook may hold the body's store
            if cmd.name in eta:
                out[cmd.name] = eta[cmd.name]  # restore the shadowed variable
            else:
                del out[cmd.name]
            return out
        if isinstance(cmd, A.If):
            branch = cmd.then_cmd if self._eval(h, eta, cmd.cond) else cmd.else_cmd
            return self._exec_command(gamma, branch, h, eta, fuel)
        if isinstance(cmd, A.While):
            iterations = 0
            while self._eval(h, eta, cmd.cond):
                iterations += 1
                if iterations > self.loop_cap:
                    raise self._stop(FUEL_EXHAUSTED, "loop iteration cap exceeded")
                eta = self._exec_command(gamma, cmd.body, h, eta, fuel)
            return eta
        if isinstance(cmd, A.Seq):
            for it in cmd.items:
                eta = self._exec_command(gamma, it, h, eta, fuel)
            return eta
        raise TypeError(f"not a core command: {cmd!r}")


@contextlib.contextmanager
def runtime_swapped(cls):
    """Bind a subclass of `cls` as `Runtime` in every jcore module that binds
    `Runtime`; yields the list of the runtimes it makes meanwhile."""
    made = []

    class Recorded(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    modules = [m for name, m in list(sys.modules.items())
               if name.split(".")[0] == "jcore" and getattr(m, "Runtime", None) is Runtime]
    for m in modules:
        m.Runtime = Recorded
    try:
        yield made
    finally:
        for m in modules:
            m.Runtime = Runtime


def _heap_facts(h):
    return [(repr(loc), [(f, repr(v)) for f, v in state.items()]) for loc, state in h.items()]


def outcome_facts(outcome):
    """A bottom with its stack, or a heap with a store or value, rendered."""
    if isinstance(outcome, Bottom):
        return ("bottom", outcome.reason, outcome.detail, outcome.stack)
    h, rest = outcome
    rest = [(x, repr(v)) for x, v in rest.items()] if isinstance(rest, dict) else repr(rest)
    return ("ok", _heap_facts(h), rest)


class EventLog(InterpHooks):
    """Every hook event with its arguments, states rendered as they are at
    the event (values by `repr`, so `True` and `1` differ) and nodes by
    identity. `stores` keeps the stores `after_command` receives, to render
    once the run is over: a store a hook holds must not change after it."""

    def __init__(self):
        self.events = []
        self.stores = []

    def after_alloc(self, heap, loc):
        self.events.append(("after_alloc", _heap_facts(heap), loc))

    def before_write(self, heap, loc, fieldname, value):
        self.events.append(("before_write", _heap_facts(heap), loc, fieldname, repr(value)))

    def after_command(self, gamma, cmd, outcome):
        self.events.append(("after_command", dict(gamma), type(cmd).__name__, id(cmd), outcome_facts(outcome)))
        self.stores.append(None if isinstance(outcome, Bottom) else outcome[1])

    def before_call(self, caller_gamma, callee_class, callee_store, heap, site, mscoped):
        self.events.append(("before_call", dict(caller_gamma), callee_class, outcome_facts((heap, callee_store)),
                            id(site), mscoped))

    def after_call(self, caller_gamma, callee_class, callee_store, outcome, site, mscoped):
        self.events.append(("after_call", dict(caller_gamma), callee_class, repr(callee_store),
                            outcome_facts(outcome), id(site), mscoped))
