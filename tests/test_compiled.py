"""The compiled interpreter against the tree walker it replaced
(`helpers.TreeWalkRuntime`): the same outcome, fuel, steps, least fuel and
hook events on every run, the same CLI output, and a code memo that lives
and dies with its class table."""

import gc
import hashlib
import itertools
import random
import weakref

import pytest

import test_soundness_fuzz
from helpers import EventLog, TreeWalkRuntime, eval_expr, exec_command, outcome_facts, runtime_swapped
from jcore import ast as A
from jcore.classtable import Designations, build_class_table
from jcore.cli import main
from jcore.confine import ConfinementMonitor
from jcore.corpus import equiv_expectations, load_corpus, simtest_expectations
from jcore.coupling import _exec_step, generate_scripts
from jcore.desugar import parse_and_desugar
from jcore.interp import (
    ABORT, CAST_FAILURE, FUEL_EXHAUSTED, IT, NIL_DEREF, HookChain, Location, Runtime, TraceHooks,
    collect, format_state, run, value_kind, values_equal,
)

RUNTIMES = (Runtime, TreeWalkRuntime)
MODES = (None, "log", "every", "calls", "trace")  # no hooks; an event log, alone or after a monitor or tracer


def _run_facts(cls, ct, entry_class, entry_method, mode, **budget):
    """What one `run` with `cls` as the runtime shows: outcome, fuel, steps,
    each runtime's steps and least fuel, every hook event, the violations
    and the trace."""
    log = EventLog()
    monitor = ConfinementMonitor(ct, mode) if mode in ("every", "calls") else None
    tracer = TraceHooks() if mode == "trace" else None
    hooks = None if mode is None else HookChain(monitor, tracer, log)
    with runtime_swapped(cls) as made:
        res = run(ct, entry_class, entry_method, hooks=hooks, **budget)
    runtimes = [(rt.steps, rt.low_fuel) for rt in made]
    violations = [v.render() for v in monitor.violations] if monitor else None
    trace = tracer.lines if tracer else None
    events = log.events + [repr(store) for store in log.stores]
    return outcome_facts(res.outcome), res.fuel_used, res.steps, runtimes, events, violations, trace


def assert_same_run(ct, entry_class, entry_method, mode, **budget):
    got, want = (_run_facts(cls, ct, entry_class, entry_method, mode, **budget) for cls in RUNTIMES)
    assert got == want
    return got


@pytest.mark.parametrize("mode", MODES)
def test_corpus_entries_match_the_tree_walker(tables, corpus, mode):
    events = 0
    for name, rec in corpus.items():
        for e in rec.entries:
            facts = assert_same_run(tables[name], e.entry_class, e.entry_method, mode)
            events += len(facts[4])
            assert facts[0][0] == ("ok" if e.outcome == "ok" else "bottom")
    assert (events > 1000) == (mode is not None)


DOWN = """
class D extends Object {
  int down(int n) {
    if n = 0 then result := 0 else result := self.down(n - 1) + 1 fi
  }
}
class Main extends Object {
  int out;
  unit main() { D r := new D; self.out := r.down(%d) }
}
"""


def _table(src, des=None):
    return build_class_table(parse_and_desugar(src), des)


@pytest.mark.parametrize("k", [0, 1, 3, 50, 90])
def test_down_matches_the_tree_walker(k):
    ct = _table(DOWN % k)
    for mode, fuel in itertools.product((None, "log"), (1024, k + 1, k // 2 + 1)):
        facts = assert_same_run(ct, "Main", "main", mode, max_fuel=fuel)
        assert (facts[0][0] == "ok") == (fuel > k)


# A bottom of each reason in `Main.main` itself, or three calls deep in `C.d0`.
BOTTOMS = {
    "field": (NIL_DEREF, "C z := self.nxt; self.n := z.n"),
    "update": (NIL_DEREF, "C z := self.nxt; z.n := 1"),
    "call": (NIL_DEREF, "C z := self.nxt; z.d0()"),
    "cast": (CAST_FAILURE, "Object o := new Main; C z := (C) o; skip"),
    "abort": (ABORT, "self.n := 1; abort"),
    "loop": (FUEL_EXHAUSTED, "while true do self.n := self.n + 1 od"),
    "fuel": (FUEL_EXHAUSTED, "C z := new C; z.d0()"),
    "argument": (NIL_DEREF, "C z := self.nxt; self.take(z.n)"),  # arguments come before the fuel test
}

BOTTOM_PROGRAM = """
class C extends Object {
  C nxt;
  int n;
  unit d2() { self.d1() }
  unit d1() { int i := 1; self.d0() }
  unit d0() { %s }
  unit take(int k) { skip }
}
class Main extends Object {
  C nxt;
  int n;
  unit take(int k) { skip }
  unit main() { %s }
}
"""


@pytest.mark.parametrize("deep", [False, True])
@pytest.mark.parametrize("case", sorted(BOTTOMS))
def test_each_bottom_matches_the_tree_walker(case, deep):
    reason, stmt = BOTTOMS[case]
    main_body = "C c := new C; c.d2()" if deep else stmt
    ct = _table(BOTTOM_PROGRAM % (stmt if deep else "skip", main_body))
    # fuel 3 runs d0 at 0, where its call bottoms; at 0 the entry's call does
    budget = {"loop_cap": 5, "max_fuel": (3 if deep else 0) if case in ("fuel", "argument") else 1024}
    for mode in (None, "log"):
        facts = assert_same_run(ct, "Main", "main", mode, **budget)
        assert facts[0][:2] == ("bottom", reason)
        assert facts[0][3] == (("C.d2", "C.d1", "C.d0") if deep else ())


# Stores are updated in place: a block restores what it shadows, a bottom
# inside blocks unwinds past their restores, and a hook keeps a snapshot.
# The programs designate an owner, so that the monitors have one to check.
LOCALS = """
class Rep extends Object {
}
class C extends Object {
  int shadow(int p) {
    result := p;
    int p := p + 10;
    result := result + p;
    { int p := p + 100; { int p := p + 1000; result := result + p }; result := result + p };
    result := result + p
  }
}
class Main extends Object {
  int out;
  int log;
  unit main() {
    C c := new C;
    int i := 0;
    while i < 25 do
      int k := i + 1;
      { int i := k + 5; self.log := self.log + i };
      { int k := k + 7; { int k := k + 9; self.log := self.log + k }; self.log := self.log + k };
      i := k
    od;
    self.out := c.shadow(i)
  }
}
"""

NESTED_BOTTOM = """
class Rep extends Object {
}
class C extends Object {
  C nxt;
  int n;
  unit d2() { int a := 1; { int b := a + 1; self.d1(b) } }
  unit d1(int b) { int a := b; { int a := a + 1; self.n := a; self.d0() }; self.n := 0 }
  unit d0() { %s }
}
class Main extends Object {
  C nxt;
  int n;
  unit main() { %s }
}
"""
NESTED_BOTTOM_BODY = "int a := 1; { int b := a + 1; { int a := b + 1; self.n := a; C z := self.nxt; z.n := a }; a := 5 }"

SHAPES = """
class Rep extends Object {
}
class Shape extends Object {
  int area() { result := 1 }
}
class Sq extends Shape {
  int area() { result := 4 }
}
class Sq2 extends Sq {
}
class Tri extends Shape {
  int area() { int a := super.area(); result := a + 20 }
}
class Big extends Tri {
  int area() { int b := super.area(); result := b + 300 }
}
class Main extends Object {
  int out;
  Shape pick(int i) {
    if i mod 5 = 0 then result := new Shape else
    if i mod 5 = 1 then result := new Sq else
    if i mod 5 = 2 then result := new Sq2 else
    if i mod 5 = 3 then result := new Tri else result := new Big fi fi fi fi
  }
  unit main() {
    int i := 0;
    while i < 15 do
      Shape s := self.pick(i);
      self.out := self.out + s.area();
      i := i + 1
    od
  }
}
"""


def _owned(src, own="C"):
    return _table(src, Designations(own, "Rep"))


def _out(facts):
    return dict(facts[0][1])[repr(Location("Main", 0))]


@pytest.mark.parametrize("mode", MODES)
def test_shadowing_and_loop_locals_match_the_tree_walker(mode):
    """A local shadowing a parameter, nested same-name locals, and locals
    declared in a loop body that runs 25 times."""
    facts = assert_same_run(_owned(LOCALS), "Main", "main", mode)
    assert _out(facts) == [("out", "1365"), ("log", "1675")]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("deep", [False, True])
def test_bottom_inside_nested_blocks_matches_the_tree_walker(mode, deep):
    """A null dereference inside nested blocks, in `Main.main` itself or
    three calls deep, each caller inside blocks of its own."""
    main_body = "C c := new C; { int a := 2; c.d2() }" if deep else NESTED_BOTTOM_BODY
    ct = _owned(NESTED_BOTTOM % (NESTED_BOTTOM_BODY if deep else "skip", main_body))
    facts = assert_same_run(ct, "Main", "main", mode)
    assert facts[0][:2] == ("bottom", NIL_DEREF)
    assert facts[0][3] == (("C.d2", "C.d1", "C.d0") if deep else ())


@pytest.mark.parametrize("mode", MODES)
def test_call_site_over_many_receiver_classes_matches_the_tree_walker(mode):
    """One call site reaches five receiver classes, two of them through
    `super` call sites, in one run."""
    facts = assert_same_run(_owned(SHAPES, "Shape"), "Main", "main", mode)
    assert _out(facts) == [("out", str(3 * (1 + 4 + 4 + 21 + 321)))]


# Shapes the compiler reads in place or runs in a parent's frame: each
# `Main.main` body with the `Main.out` it leaves, or its bottom and detail.
OPERANDS = """
class Rep extends Object {
}
class C extends Object {
  C nxt;
  int n;
  int zero() { result := 0 }
  int one(int a) { result := a }
  int two(int a, int b) { result := a - b }
  int three(int a, int b, int c) { result := a + b - c }
}
class D extends C {
  int one(int a) { int r := super.one(a); result := r + 10 }
}
class Main extends Object {
  C nxt;
  int n;
  int out;
  unit main() { %s }
}
"""
IN_PLACE = {
    "plus": ("int x := 4; self.out := x + 1", 5),
    "minus": ("int x := 4; int y := 9; self.out := x - y", -5),
    "mod-zero": ("int x := 4; self.out := x mod 0", 0),
    "mod-literal": ("int x := 7; self.out := x mod 3", 1),
    "literal-minus-variable": ("int x := 4; self.out := 10 - x", 6),
    "null-equals-null": ("C x := null; if x = null then self.out := 1 else self.out := 2 fi", 1),
    "location-equals-null": ("C x := new C; if x = null then self.out := 1 else self.out := 2 fi", 2),
    "arities": ("C c := new C; int a := 3; int b := 4; int k := 5; "
                "self.out := c.zero() + c.one(a) + c.two(a, b) + c.three(a, b, k)", 0 + 3 - 1 + 2),
    "super-one-argument": ("C d := new D; int a := 3; self.out := d.one(a)", 13),
    "mixed-arguments": ("C c := new C; int a := 3; c.n := 7; self.out := c.two(a, c.n) + c.one(a + 1)", -4 + 4),
    "skips": ("skip; self.n := 1; skip; skip; int x := self.n + 1; skip; self.out := x; skip", 2),
    "call-on-null": ("C z := self.nxt; self.out := z.zero()", (NIL_DEREF, "call of zero on null")),
    "field-of-null": ("C z := self.nxt; self.out := z.n", (NIL_DEREF, "field n of null")),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", sorted(IN_PLACE))
def test_operands_read_in_place_match_the_tree_walker(case, mode):
    """Variable and literal operands, `= null`, variable receivers and
    targets, argument lists of each arity, and `skip` items."""
    body, want = IN_PLACE[case]
    facts = assert_same_run(_owned(OPERANDS % body), "Main", "main", mode)
    if isinstance(want, tuple):
        assert facts[0][:3] == ("bottom", *want)
    else:
        assert ("out", str(want)) in _out(facts)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("deep", [False, True])
def test_block_body_bottoming_at_its_second_item_matches_the_tree_walker(mode, deep):
    """A block whose body sequence bottoms at its second item, in `Main.main`
    itself or three calls deep: the same steps and stack as the tree walker."""
    body = "C z := self.nxt; self.n := 1; self.n := z.n; self.n := 2"
    main_body = "C c := new C; { int a := 2; c.d2() }" if deep else body
    facts = assert_same_run(_owned(NESTED_BOTTOM % (body if deep else "skip", main_body)), "Main", "main", mode)
    assert facts[0][:3] == ("bottom", NIL_DEREF, "field n of null")
    assert facts[0][3] == (("C.d2", "C.d1", "C.d0") if deep else ())


@pytest.mark.parametrize("mode", MODES)
def test_two_tables_from_one_source_run_alternately_match_the_tree_walker(mode):
    """Two tables parsed apart from each of two sources, run in turn: each
    runs its own code, so hook events name its own nodes."""
    tables = [_owned(SHAPES, "Shape"), _owned(LOCALS), _owned(SHAPES, "Shape"), _owned(LOCALS)]
    for ct in tables * 2:
        assert_same_run(ct, "Main", "main", mode)


def test_exec_command_leaves_the_callers_store_as_it_was():
    """The helper entry runs a command on a copy of the caller's store."""
    ct = _table(DOWN % 7)
    loc = Location("D", 0)
    gamma = {"self": A.ClassType("Main"), "r": A.ClassType("D"), "x": A.INT, "y": A.INT}
    cmd = A.Seq((A.Assign("x", A.IntLit(5)), A.CallAssign("y", A.Var("r"), "down", (A.IntLit(3),)),
                 A.LocalBlock(A.INT, "x", A.IntLit(9), A.Assign("y", A.Var("x")))))
    for hooks in (None, EventLog()):
        eta = {"self": None, "r": loc, "x": -1, "y": -1}
        _, out = exec_command(Runtime(ct, hooks=hooks), gamma, cmd, {loc: {}}, eta, 8)
        assert out == {"self": None, "r": loc, "x": 5, "y": 9}
        assert eta == {"self": None, "r": loc, "x": -1, "y": -1}


def _capture(capsys, cls, argv):
    with runtime_swapped(cls) as made:
        code = main(argv)
    out, err = capsys.readouterr()
    return (code, out, err), [(rt.steps, rt.low_fuel) for rt in made]


def _assert_same_cli(capsys, argv):
    got, want = (_capture(capsys, cls, argv) for cls in RUNTIMES)
    assert got == want, argv
    return got


def test_manifests_match_the_tree_walker(capsys):
    """`equiv` and `simtest` on every manifest: the same output, exit code,
    and steps and least fuel of every runtime."""
    manifests = [("equiv", p) for p, _ in equiv_expectations()] + [("simtest", p) for p, _ in simtest_expectations()]
    assert len(manifests) == 15
    for command, path in manifests:
        (code, out, _), runtimes = _assert_same_cli(capsys, ["--format", "json", command, path])
        assert out and runtimes


def test_cli_run_output_matches_the_tree_walker(capsys):
    """`run` of every corpus entry, in both formats, plain, traced, under
    either monitor and at small fuels: byte-identical output and exit code."""
    flags = [[], ["--trace"], ["--monitor", "every"], ["--monitor", "calls"]]
    flags += [["--max-fuel", str(f)] for f in (1, 2, 3, 4, 8)]
    runs = 0
    for rec in load_corpus():
        des = ["--own", rec.own, "--rep", rec.rep] + (["--rep2", rec.rep2] if rec.rep2 else [])
        for e, fmt, extra in itertools.product(rec.entries, ("text", "json"), flags):
            argv = ["--format", fmt, "run", "--entry", f"{e.entry_class}.{e.entry_method}", *des, *extra, rec.path]
            _assert_same_cli(capsys, argv)
            runs += 1
    assert runs == 22 * 2 * len(flags)


def _script_facts(cls, ct, scripts):
    """Each script from empty heaps on one runtime of `cls` per script,
    monitored: per step the outcome, then the events, violations, steps and
    least fuel."""
    out = []
    for script in scripts:
        log, monitor = EventLog(), ConfinementMonitor(ct, "every")
        rt = cls(ct, hooks=HookChain(monitor, log))
        heap, roots, steps = {}, {}, []
        for st in script:
            bot, heap = _exec_step(rt, heap, roots, st, 8)
            steps.append(outcome_facts(bot or (heap, roots)))
            if bot is not None:
                break
        out.append((steps, log.events, [repr(s) for s in log.stores], [v.render() for v in monitor.violations],
                    rt.steps, rt.low_fuel))
    return out


def test_soundness_fuzz_compositions_match_the_tree_walker():
    rng = random.Random(99)
    for _ in range(12):
        src, _ = test_soundness_fuzz._compose(rng)
        ct = _table(src, Designations("Own2", "Rep2"))
        for mode in ("every", "calls"):
            assert_same_run(ct, "Main", "main", mode)
        scripts = [s for oc in ("Own2", "SubOwn2") for s in generate_scripts(ct, oc, max_len=3, max_scripts=10)]
        assert _script_facts(Runtime, ct, scripts) == _script_facts(TreeWalkRuntime, ct, scripts)


# ---------------------------------------------------------------------------
# The code memo: keyed by node identity, kept by the table, dropped with it


def test_code_memo_is_safe_against_id_reuse():
    """Temporary nodes, each dropped after use, so a later node may take an
    earlier one's id: every node still runs its own code."""
    ct = _table("class Main extends Object { int n; unit main() { skip } }")
    rt = Runtime(ct)
    gamma = {"self": A.ClassType("Main")}
    for i in range(2000):
        value = A.IntLit(i)
        cmd = A.Assign("x", value) if i % 2 else A.If(A.BoolLit(i % 4 == 0), A.Assign("x", value), A.Skip())
        _, eta = exec_command(rt, gamma, cmd, {}, {"x": -1}, 1)
        assert eta["x"] == (i if i % 4 != 2 else -1)
        assert eval_expr(rt, {}, {"y": i}, A.IntOp("+", A.Var("y"), A.IntLit(1))) == i + 1
        del value, cmd


def test_ad_hoc_nodes_leave_no_code_on_the_table():
    """`exec_command` and `eval_expr` compile their node for the call only;
    the method bodies an ad-hoc command calls are kept as before."""
    ct = _table(DOWN % 7)
    assert run(ct, "Main", "main").ok
    loc, memo = Location("D", 0), Runtime(ct)._code
    kept = len(memo)
    gamma = {"self": A.ClassType("Main")}
    for i in range(500):
        call = A.CallAssign("x", A.Var("r"), "down", (A.IntLit(i % 5),))
        _, eta = exec_command(Runtime(ct), gamma, call, {loc: {}}, {"r": loc, "x": -1}, 8)
        assert eta["x"] == i % 5
        assert eval_expr(Runtime(ct), {}, {"y": i}, A.IntOp("+", A.Var("y"), A.IntLit(1))) == i + 1
    assert len(memo) == kept


def test_plain_and_hooked_runs_keep_their_code_apart(corpus):
    """One table runs each corpus entry plain, under the `every` monitor,
    then plain again. Each run shows what the same run shows on a fresh
    table built from the same declarations: outcome, fuel, steps and least
    fuel, and under hooks every event and violation."""
    for name, rec in corpus.items():
        decls = parse_and_desugar(rec.source())
        shared = build_class_table(decls, rec.designations())
        for e, mode in itertools.product(rec.entries, (None, "every", None)):
            fresh = build_class_table(decls, rec.designations())
            got, want = (_run_facts(Runtime, ct, e.entry_class, e.entry_method, mode) for ct in (shared, fresh))
            assert got == want, (name, e.entry_class, mode)


class _CountedRuntime(Runtime):
    """A runtime that counts its reads of `hooks` and its allocations."""

    def __init__(self, *args, **kwargs):
        self.reads = self.allocations = 0
        super().__init__(*args, **kwargs)

    @property
    def hooks(self):
        self.reads += 1
        return self._hooks

    @hooks.setter
    def hooks(self, value):
        self._hooks = value

    def _new_object(self, class_name, h):
        self.allocations += 1
        return super()._new_object(class_name, h)


def test_code_for_a_plain_run_tests_no_hook(corpus, tables):
    """Once its code is compiled, a run without hooks reads `hooks` once per
    allocation, for `after_alloc`, and at no command."""
    programs = [(tables[name], e.entry_class, e.entry_method) for name, rec in corpus.items() for e in rec.entries]
    programs.append((_table(DOWN % 50), "Main", "main"))
    steps = 0
    for ct, entry_class, entry_method in programs:
        run(ct, entry_class, entry_method)
        with runtime_swapped(_CountedRuntime) as made:
            steps += run(ct, entry_class, entry_method).steps
        (rt,) = made
        assert rt.reads == rt.allocations, entry_class
    assert steps > 1000


def test_code_memo_lives_and_dies_with_its_table():
    """Two tables from one source run apart; once one is dropped, its code
    goes with it and the other still runs."""
    src = DOWN % 7
    ct_a, ct_b = _table(src), _table(src)

    def out(ct):
        return run(ct, "Main", "main").outcome[0][Location("Main", 0)]["out"]

    assert out(ct_a) == out(ct_b) == 7
    table, body = weakref.ref(ct_a), weakref.ref(ct_a.decls["D"].methods[0].body)
    del ct_a
    gc.collect()
    assert table() is None and body() is None
    assert out(ct_b) == 7


# ---------------------------------------------------------------------------
# Locations are named tuples


def test_location_repr_order_and_hash():
    locs = [Location("Node", 10), Location("A", 2), Location("Node", 9), Location("A", 0)]
    assert [repr(loc) for loc in locs] == ["Node@10", "A@2", "Node@9", "A@0"]
    assert str(locs[0]) == "Node@10"
    assert sorted(locs) == [Location("A", 0), Location("A", 2), Location("Node", 9), Location("Node", 10)]
    assert (locs[0].class_name, locs[0].index) == ("Node", 10)
    table = {loc: i for i, loc in enumerate(locs)}
    assert [table[Location(c, i)] for c, i in [("A", 0), ("Node", 10)]] == [3, 0]


def test_value_kinds_and_equality_across_all_kinds():
    values = [None, IT, False, True, 0, 1, Location("A", 0), Location("A", 1), Location("B", 0)]
    kinds = ["nil", "unit", "bool", "bool", "int", "int", "loc", "loc", "loc"]
    assert [value_kind(v) for v in values] == kinds
    for (a, ka), (b, kb) in itertools.product(zip(values, kinds), repeat=2):
        assert values_equal(a, b) == (ka == kb and a == b)
    assert not values_equal(True, 1) and not values_equal(0, False)
    with pytest.raises(TypeError):
        value_kind(("A", 0))


def test_format_state_and_collect_on_corpus_finals(tables, corpus):
    """Every corpus entry's collected final state, listed: pinned by a digest
    of the listings taken with locations as frozen dataclasses."""
    listings = []
    for name, rec in corpus.items():
        for e in rec.entries:
            res = run(tables[name], e.entry_class, e.entry_method)
            if res.ok:
                h, eta = collect(*res.outcome)
                listings.append(f"{name} {list(h)}\n{format_state(h, eta)}")
    assert len(listings) == 18
    assert hashlib.sha256("\n".join(listings).encode()).hexdigest()[:16] == "f6a3fabb5f13e497"
