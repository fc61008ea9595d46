import copy
import random

import pytest
from helpers import (
    eval_expr, exec_command, exec_constructor, heap_closed, heap_well_typed, observer_n, store_closed, value_in_type,
)

from jcore import ast as A
from jcore import interp
from jcore.ast import BOOL, INT, UNIT, ClassType
from jcore.classtable import Designations, WellFormednessError, build_class_table
from jcore.desugar import parse_and_desugar
from jcore.interp import (
    IT, Bottom, EntryClassError, InterpHooks, Location, Runtime, collect, default_value, fresh, run, values_equal,
)
from test_roundtrip_fuzz import gen_program


def test_fresh_least_unused_index():
    assert fresh("C", {}) == Location("C", 0)
    h = {Location("C", 0): {}, Location("C", 2): {}, Location("D", 1): {}}
    assert fresh("C", h) == Location("C", 1)
    assert fresh("D", h) == Location("D", 0)


def test_fresh_is_parametric():
    # equal per-class slices, different junk elsewhere
    h1 = {Location("C", 0): {}, Location("D", 5): {}, Location("D", 7): {}}
    h2 = {Location("C", 0): {}, Location("E", 1): {}}
    assert fresh("C", h1) == fresh("C", h2)


def test_fresh_from_any_start_below_the_least_free_index():
    # criterion-8-style random heaps: resuming the scan from any index with no
    # free index below it finds what the spec finds from 0
    rng = random.Random(8)
    classes = ["A", "B", "C"]
    for _ in range(1000):
        h = {Location(rng.choice(classes), rng.randrange(12)): {} for _ in range(rng.randrange(24))}
        target = rng.choice(classes)
        least = fresh(target, h)
        for k in range(least.index + 1):
            assert fresh(target, h, start=k) == least


@pytest.fixture
def checked_fresh(monkeypatch):
    """Wrap the allocator: every location it returns must be the spec's
    `fresh(c, h)`; the list collects how far each scan went past its start."""
    spec = interp.fresh
    overshoot = []

    def checked(class_name, heap, start=0):
        loc = spec(class_name, heap, start)
        assert loc == spec(class_name, heap), (class_name, start)
        overshoot.append(loc.index - start)
        return loc

    monkeypatch.setattr(interp, "fresh", checked)
    return overshoot


def test_run_allocation_matches_spec_and_never_rescans(checked_fresh, corpus, tables):
    # a run starts from the empty heap, so each scan stops where it starts
    res = run(observer_n(corpus, 400), "Main", "main")
    h, eta = res.outcome
    assert h[h[eta["self"]]["ob"]]["count"] == 400
    assert len(checked_fresh) > 400 and sum(checked_fresh) == 0
    for name, rec in corpus.items():
        for e in rec.entries:
            checked_fresh.clear()
            run(tables[name], e.entry_class, e.entry_method)
            assert sum(checked_fresh) == 0, (name, e.entry_class)


CURSOR_SRC = """
class C extends Object { C next; }
class Maker extends Object {
  C last;
  unit make(int n) { int i := 0; while i < n do self.last := new C; i := i + 1 od }
}
"""


def test_public_entry_rescans_at_most_its_heap(checked_fresh):
    ct = build_class_table(parse_and_desugar(CURSOR_SRC))
    maker = Location("Maker", 0)
    h = {maker: {"last": None}, Location("C", 1): {"next": None}, Location("C", 3): {"next": None}}
    rt = Runtime(ct)
    h1, _ = rt.invoke(maker, "make", [5], h, 4)
    assert sorted(l.index for l in h1 if l.class_name == "C") == [0, 1, 2, 3, 4, 5, 6]
    assert len(checked_fresh) == 5 and sum(checked_fresh) <= len(h)
    # the same runtime on an unrelated, smaller heap: the cursors start over
    h2, _ = rt.invoke(maker, "make", [1], {maker: {"last": None}}, 4)
    assert h2[maker]["last"] == Location("C", 0)
    assert rt.new_object("C", {})[1] == Location("C", 0)
    h3, _ = exec_command(rt, {"self": ClassType("Maker")}, A.NewAssign("x", "C"), {}, {"self": maker}, 4)
    assert Location("C", 0) in h3


VALUE_SRC = """
class C extends Object { int v; }
class Cell extends Object {
  int f;
  C last;
  con { self.f := 7 }
  unit set(int x) { self.f := x; self.last := new C }
  unit setAbort(int x) { self.f := x; self.last := new C; abort }
}
class Bad extends Cell {
  con { self.f := 9; abort }
}
"""


def test_public_entries_keep_value_semantics():
    # the runtime updates its own copy in place; the caller's heap, state
    # dicts included, is untouched whether the entry succeeds or bottoms
    ct = build_class_table(parse_and_desugar(VALUE_SRC))
    rt = Runtime(ct)
    h, cell = rt.new_object("Cell", {})
    assert h[cell] == {"f": 7, "last": None}
    write = A.FieldAssign(A.Var("self"), "f", A.IntLit(5))
    entries = {
        "invoke": lambda h: rt.invoke(cell, "set", [1], h, 4),
        "invoke-abort": lambda h: rt.invoke(cell, "setAbort", [2], h, 4),
        "new_object": lambda h: rt.new_object("Cell", h),
        "new_object-abort": lambda h: rt.new_object("Bad", h),
        "exec_constructor": lambda h: exec_constructor(rt, "Cell", h, cell),
        "exec_constructor-abort": lambda h: exec_constructor(rt, "Bad", h, cell),
        "exec_command": lambda h: exec_command(rt, {"self": ClassType("Cell")}, write, h, {"self": cell}, 4),
    }
    h[cell]["f"] = 0  # so that rerunning Cell's constructor changes the state
    for name, entry in entries.items():
        before = copy.deepcopy(h)
        out = entry(h)
        assert h == before, name
        if name.endswith("-abort"):
            assert isinstance(out, Bottom) and out.reason == "explicit-abort", name
        else:
            assert not isinstance(out, Bottom), name
            h_out = out if isinstance(out, dict) else out[0]
            assert h_out != h, name


def test_values_equal_distinguishes_kinds():
    assert not values_equal(True, 1)
    assert not values_equal(0, False)
    assert not values_equal(IT, 0)
    assert values_equal(None, None)
    assert values_equal(Location("C", 0), Location("C", 0))
    assert not values_equal(Location("C", 0), Location("D", 0))


def test_equality_on_incomparable_non_nil_is_false(tables):
    ct = tables["observer_v1"]
    rt = Runtime(ct)
    h = {Location("Observable", 0): {"fst": None}, Location("Observer", 0): {}}
    eta = {"x": Location("Observable", 0), "y": Location("Observer", 0)}
    assert eval_expr(rt, h, eta, A.Eq(A.Var("x"), A.Var("y"))) is False
    eta2 = {"x": None, "y": None}
    assert eval_expr(rt, h, eta2, A.Eq(A.Var("x"), A.Var("y"))) is True


def test_cast_and_test_on_null(tables):
    ct = tables["observer_v1"]
    rt = Runtime(ct)
    assert eval_expr(rt, {}, {"x": None}, A.InstanceTest(A.Var("x"), "Node")) is False
    assert eval_expr(rt, {}, {"x": None}, A.Cast("Node", A.Var("x"))) is None


def test_cast_failure_and_nil_deref(tables):
    ct = tables["observer_sub"]
    rt = Runtime(ct)
    h = {Location("Node4", 0): {"ob": None, "nxt": None}}
    out = eval_expr(rt, h, {"x": Location("Node4", 0)}, A.Cast("NodeAcc", A.Var("x")))
    assert isinstance(out, Bottom) and out.reason == "cast-failure"
    out = eval_expr(rt, h, {"x": None}, A.FieldAccess(A.Var("x"), "nxt"))
    assert isinstance(out, Bottom) and out.reason == "nil-dereference"


def test_new_initializes_defaults():
    src = """
    class P extends Object { bool b; int i; unit u; P link; }
    class Main extends Object { unit main() { P p := new P; skip } }
    """
    ct = build_class_table(parse_and_desugar(src))
    rt = Runtime(ct)
    h, loc = rt.new_object("P", {})
    assert h[loc] == {"b": False, "i": 0, "u": IT, "link": None}


def test_call_at_fuel_zero_is_fuel_exhausted(tables):
    ct = tables["obool_v1"]
    rt = Runtime(ct)
    h, loc = rt.new_object("OBool", {})
    out = rt.invoke(loc, "init", [], h, 0)
    assert isinstance(out, Bottom) and out.is_fuel()


def test_invoke_fuel_one_bottoms_on_nested_call(tables):
    ct = tables["obool_v1"]
    rt = Runtime(ct)
    h, loc = rt.new_object("OBool", {})
    out = rt.invoke(loc, "init", [], h, 1)  # init's body calls set at fuel 0
    assert isinstance(out, Bottom) and out.is_fuel()
    out = rt.invoke(loc, "init", [], h, 2)
    assert not isinstance(out, Bottom)


def test_recursive_notify_needs_depth_fuel(tables):
    ct = tables["observer_sub"]
    rt = Runtime(ct)
    h = {}
    h, obs = rt.new_object("AnObserver", h)
    nodes = []
    for _ in range(3):
        h, n = rt.new_object("Node4", h)
        nodes.append(n)
    for i, n in enumerate(nodes):
        state = dict(h[n])
        state["ob"] = obs
        state["nxt"] = nodes[i + 1] if i + 1 < len(nodes) else None
        h2 = dict(h)
        h2[n] = state
        h = h2
    out3 = rt.invoke(nodes[0], "notifyAll", [], h, 3)
    assert isinstance(out3, Bottom) and out3.is_fuel()
    out4 = rt.invoke(nodes[0], "notifyAll", [], h, 4)
    assert not isinstance(out4, Bottom)
    h4, _ = out4
    assert h4[obs]["count"] == 3


def test_constructor_chain_and_sentinel(tables):
    ct = tables["observer_sentinel"]
    rt = Runtime(ct)
    h, loc = rt.new_object("Observable", h={})
    snt = h[loc]["snt"]
    assert isinstance(snt, Location) and snt.class_name == "Node2"
    assert h[snt] == {"ob": None, "nxt": None}


def test_constructor_cyclic_self_reference(tables):
    ct = tables["observer_groups"]
    rt = Runtime(ct)
    h, loc = rt.new_object("ObservableAccG", {})
    assert h[loc]["peer"] == loc


def test_skip_constructors_leave_default_object(tables):
    ct = tables["observer_v1"]
    rt = Runtime(ct)
    h, loc = rt.new_object("Observable", {})
    assert h == {loc: {"fst": None}}


def test_run_observer_client(tables):
    ct = tables["observer_v1"]
    res = run(ct, "Main", "main")
    assert res.ok and res.fuel_used == 2
    h, eta = res.outcome
    assert h[h[eta["self"]]["ob"]]["count"] == 1


def test_run_meyer_sieber_aborts(tables):
    for name in ("meyer_sieber_v1", "meyer_sieber_v2"):
        res = run(tables[name], "Main", "main")
        assert isinstance(res.outcome, Bottom)
        assert res.outcome.reason == "explicit-abort"


def test_run_trivial_entry():
    src = "class Main extends Object { unit main() { skip } }"
    ct = build_class_table(parse_and_desugar(src))
    res = run(ct, "Main", "main")
    assert res.ok
    h, eta = res.outcome
    assert list(h) == [eta["self"]]


def test_run_rejects_owner_entry(tables):
    ct = tables["obool_v1"]
    with pytest.raises(EntryClassError):
        run(ct, "OBool", "init")
    with pytest.raises(EntryClassError):
        run(ct, "Bool", "get")


def test_collect_drops_unreachable(tables):
    ct = tables["observer_v1"]
    h = {Location("Observer", 0): {}}
    h2, eta = collect(h, {"x": None, "n": 3})
    assert h2 == {}
    # cyclic structure fully reachable from one root stays intact
    ct = tables["observer_groups"]
    rt = Runtime(ct)
    h, a = rt.new_object("ObservableAccG", {})
    h, b = rt.new_object("ObservableAccG", h)
    sa = dict(h[a]); sa["peer"] = b
    sb = dict(h[b]); sb["peer"] = a
    h = {a: sa, b: sb}
    h2, _ = collect(h, {"x": a})
    assert set(h2) == {a, b}


def test_collect_drops_dead_owner(tables):
    ct = tables["obool_v1"]
    res = run(ct, "Main", "main")
    h, eta = res.outcome
    assert any(ct.is_owner_class(l.class_name) for l in h)
    h2, _ = collect(h, eta)
    assert not any(ct.is_owner_class(l.class_name) for l in h2)
    assert not any(ct.is_rep_class(l.class_name) for l in h2)


def test_loop_cap_reports_fuel_exhaustion():
    src = """
    class Main extends Object {
      unit main() { while true do skip od }
    }
    """
    ct = build_class_table(parse_and_desugar(src))
    res = run(ct, "Main", "main", max_fuel=4, loop_cap=50)
    assert isinstance(res.outcome, Bottom) and res.outcome.is_fuel()


def test_fuel_monotonicity_on_corpus(corpus, tables):
    for name, rec in corpus.items():
        ct = tables[name]
        for e in rec.entries:
            settled = None
            for fuel in range(1, 17):
                res = run(ct, e.entry_class, e.entry_method, max_fuel=fuel)
                out = res.outcome
                if isinstance(out, Bottom) and out.is_fuel():
                    assert settled is None, f"{name}: outcome regressed at fuel {fuel}"
                    continue
                key = out.reason if isinstance(out, Bottom) else out
                if settled is None:
                    settled = key
                else:
                    assert key == settled, f"{name}: outcome changed at fuel {fuel}"


def test_determinism(tables):
    ct = tables["observer_groups"]
    r1 = run(ct, "Main", "main")
    r2 = run(ct, "Main", "main")
    assert r1.outcome == r2.outcome and r1.fuel_used == r2.fuel_used


def test_state_well_formedness_after_runs(corpus, tables):
    for name, rec in corpus.items():
        ct = tables[name]
        for e in rec.entries:
            res = run(ct, e.entry_class, e.entry_method)
            if res.ok:
                h, eta = res.outcome
                assert heap_closed(h), name
                assert store_closed(h, eta), name
                assert heap_well_typed(ct, h), name


def test_value_in_type(tables):
    ct = tables["observer_sub"]
    assert value_in_type(ct, True, BOOL)
    assert not value_in_type(ct, 1, BOOL)
    assert not value_in_type(ct, True, INT)
    assert value_in_type(ct, IT, UNIT)
    assert value_in_type(ct, None, ClassType("Node4"))
    assert value_in_type(ct, Location("NodeAcc", 0), ClassType("Node4"))
    assert not value_in_type(ct, Location("Node4", 0), ClassType("NodeAcc"))


def test_local_block_restores_shadowed_variable():
    src = """
    class Main extends Object {
      int a;
      int b;
      unit main() {
        int x := 1;
        { int x := 2; self.a := x };
        self.b := x
      }
    }
    """
    ct = build_class_table(parse_and_desugar(src))
    res = run(ct, "Main", "main")
    assert res.ok
    h, eta = res.outcome
    st = h[eta["self"]]
    assert st == {"a": 2, "b": 1}


def test_super_call_statically_bound_to_declaring_class():
    src = """
    class A extends Object {
      int tag() { result := 1 }
      int viaSuper() { result := 0 }
    }
    class B extends A {
      int tag() { result := 2 }
      int viaSuper() { result := super.tag() }
    }
    class C extends B {
      int tag() { result := 3 }
    }
    class Main extends Object {
      int dyn;
      int sup;
      unit main() {
        C c := new C;
        self.dyn := c.tag();
        self.sup := c.viaSuper()
      }
    }
    """
    ct = build_class_table(parse_and_desugar(src))
    res = run(ct, "Main", "main")
    h, eta = res.outcome
    st = h[eta["self"]]
    # dynamic dispatch picks C's tag; the super call in B's body is bound to
    # A.tag regardless of the receiver's dynamic class
    assert st == {"dyn": 3, "sup": 1}


class _Contexts(InterpHooks):
    """Each executed command with the context its hook received."""

    def __init__(self):
        self.seen = []

    def after_command(self, gamma, cmd, outcome):
        self.seen.append((cmd, gamma))


def _assert_checker_contexts(ct, seen):
    """Each command reported the context `ast.walk_commands` gives it from
    the root of its body, as one object however often it ran. Returns the
    number of repeated reports."""
    want = {}
    for cname, decl in ct.decls.items():
        roots = [(m.body, A.method_context(cname, m)) for m in decl.methods]
        for root, gamma in roots + [(decl.constructor, {"self": ClassType(cname)})]:
            want.update((id(cmd), ctx) for cmd, ctx in A.walk_commands(root, gamma))
    reported = {}
    for cmd, gamma in seen:
        assert dict(gamma) == want[id(cmd)], cmd
        assert reported.setdefault(id(cmd), gamma) is gamma, cmd
    return len(seen) - len(reported)


def test_hooks_receive_the_checkers_contexts(corpus, tables):
    """Every corpus entry, run twice, and every method of the round-trip
    programs, run on a fresh object."""
    kinds, repeats = set(), 0
    for name, rec in corpus.items():
        log = _Contexts()
        for e in rec.entries * 2:
            run(tables[name], e.entry_class, e.entry_method, hooks=log)
        repeats += _assert_checker_contexts(tables[name], log.seen)
        kinds |= {type(cmd).__name__ for cmd, _ in log.seen}
    rng = random.Random(2718)
    for _ in range(100):
        try:
            ct = build_class_table(gen_program(rng))
        except WellFormednessError:
            continue
        log = _Contexts()
        rt = Runtime(ct, loop_cap=20, hooks=log)
        for decl in ct.decls.values():
            for m in decl.methods:
                try:  # the programs are not typed: a run may end in a Python error
                    out = rt.new_object(decl.name, {})
                    if not isinstance(out, Bottom):
                        rt.invoke(out[1], m.name, [default_value(t) for _, t in m.params], out[0], 3)
                except (KeyError, TypeError, AttributeError, AssertionError):
                    pass
        repeats += _assert_checker_contexts(ct, log.seen)
        kinds |= {type(cmd).__name__ for cmd, _ in log.seen}
    assert {"LocalBlock", "If", "While", "Seq", "CallAssign", "SuperCallAssign"} <= kinds
    assert repeats > 1000


def test_obool_versions_agree_after_init(tables):
    for name in ("obool_v1", "obool_v2"):
        ct = tables[name]
        rt = Runtime(ct)
        h, z = rt.new_object("OBool", {})
        h, _ = rt.invoke(z, "init", [], h, 4)
        h, v = rt.invoke(z, "getg", [], h, 4)
        assert v is True, name
        h, _ = rt.invoke(z, "setg", [False], h, 4)
        h, v = rt.invoke(z, "getg", [], h, 4)
        assert v is False, name


def test_observer_client_succeeds_at_fuel_two(tables):
    res = run(tables["observer_v1"], "Main", "main", max_fuel=2)
    assert res.ok
    res1 = run(tables["observer_v1"], "Main", "main", max_fuel=1)
    assert isinstance(res1.outcome, Bottom) and res1.outcome.is_fuel()


def test_field_assign_checks_target_before_value(tables):
    ct = tables["observer_v1"]
    rt = Runtime(ct)
    # both target and value would fail; the target's nil check comes first
    cmd = A.FieldAssign(
        A.Var("x"), "ob",
        A.FieldAccess(A.Var("y"), "nxt"),
    )
    gamma = {"self": ClassType("Node"), "x": ClassType("Node"), "y": ClassType("Node")}
    out = exec_command(rt, gamma, cmd, {}, {"x": None, "y": None, "self": None}, 4)
    assert isinstance(out, Bottom) and out.reason == "nil-dereference"
    assert "ob" in out.detail


def test_call_checks_receiver_before_arguments(tables):
    ct = tables["observer_v1"]
    rt = Runtime(ct)
    cmd = A.CallAssign(
        "x", A.Var("r"), "setOb",
        (A.FieldAccess(A.Var("y"), "ob"),),
    )
    gamma = {"self": ClassType("Node"), "r": ClassType("Node"), "y": ClassType("Node"),
             "x": A.UNIT}
    out = exec_command(rt, gamma, cmd, {}, {"r": None, "y": None, "x": IT, "self": None}, 4)
    assert isinstance(out, Bottom) and out.reason == "nil-dereference"
    assert "setOb" in out.detail


BOTTOM_SRC = """
class Cell extends Object { int v; }
class Main extends Object {
  int n;
  Cell c;
  unit touch() { self.n := self.n + 1 }
  unit d1(int mode) { self.touch(); Cell k := new Cell; self.d2(mode); self.n := 0 }
  unit d2(int mode) { if true then self.d3(mode) else skip fi }
  unit d3(int mode) { int j := mode; self.fail(mode); self.n := j }
  unit fail(int mode) {
    self.n := 7;
    Cell x := null;
    self.c := new Cell;
    if mode = 0 then abort else
    if mode = 1 then x.v := 1 else
    if mode = 2 then Object o := new Cell; Main m := (Main)(o); skip else
    if mode = 3 then self.fail(mode) else
    while true do self.n := self.n + 1 od
    fi fi fi fi;
    self.n := 8
  }
}
"""

# mode: the bottom's reason and the kind of command that raises it
BOTTOM_MODES = {
    0: ("explicit-abort", A.Abort),
    1: ("nil-dereference", A.FieldAssign),
    2: ("cast-failure", A.LocalBlock),
    3: ("fuel-exhausted", A.CallAssign),
    4: ("fuel-exhausted", A.While),
}


class _Recorder(InterpHooks):
    def __init__(self):
        self.events = []

    def after_command(self, gamma, cmd, outcome):
        self.events.append(("command", cmd, outcome))

    def before_call(self, caller_gamma, callee_class, callee_store, heap, site, mscoped):
        self.events.append(("before", site, None))

    def after_call(self, caller_gamma, callee_class, callee_store, outcome, site, mscoped):
        self.events.append(("after", site, outcome))


def _children(cmd):
    if isinstance(cmd, A.Seq):
        return cmd.items
    if isinstance(cmd, A.If):
        return (cmd.then_cmd, cmd.else_cmd)
    if isinstance(cmd, (A.While, A.LocalBlock)):
        return (cmd.body,)
    return ()


@pytest.mark.parametrize("mode", sorted(BOTTOM_MODES))
@pytest.mark.parametrize("entry,fuel,stack", [
    ("fail", 1, ("Main.fail",)),
    ("d1", 4, ("Main.d1", "Main.d2", "Main.d3", "Main.fail")),
])
def test_hooks_see_each_bottom_on_its_way_out(mode, entry, fuel, stack):
    # a bottom at the entry's top level or three calls deep: it closes every
    # open call and every enclosing command, innermost first, and the
    # caller's heap is left as it was
    ct = build_class_table(parse_and_desugar(BOTTOM_SRC))
    hooks = _Recorder()
    rt = Runtime(ct, loop_cap=3, hooks=hooks)
    h, main = Runtime(ct).new_object("Main", {})
    before = copy.deepcopy(h)
    out = rt.invoke(main, entry, [mode], h, fuel)
    reason, failing = BOTTOM_MODES[mode]
    assert isinstance(out, Bottom) and out.reason == reason
    assert out.stack == stack
    assert h == before

    open_calls, bottomed_calls = [], []
    for kind, site, outcome in hooks.events:
        if kind == "before":
            open_calls.append(site)
        elif kind == "after":
            assert open_calls.pop() is site
            if isinstance(outcome, Bottom):
                assert outcome is out
                bottomed_calls.append(site)
    assert open_calls == [] and len(bottomed_calls) == len(stack) - 1

    bodies = {id(ct.resolve_method(m, "Main")[1].body): m for m in ("d1", "d2", "d3", "fail")}
    chain = [(cmd, outcome) for kind, cmd, outcome in hooks.events
             if kind == "command" and isinstance(outcome, Bottom)]
    assert all(outcome is out for _, outcome in chain)
    cmds = [cmd for cmd, _ in chain]
    assert type(cmds[0]) is failing
    calls = iter(bottomed_calls)
    for inner, outer in zip(cmds, cmds[1:]):
        if id(inner) in bodies:  # a callee's body: next comes its call site
            assert outer is next(calls) and outer.method == bodies[id(inner)]
        else:
            assert any(inner is c for c in _children(outer))
    assert next(calls, None) is None and bodies[id(cmds[-1])] == entry
