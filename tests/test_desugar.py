import random
import re

from helpers import exprs_of_command, first_free_tmp
from jcore import ast as A
from jcore.classtable import Designations, build_class_table
from jcore.corpus import load_corpus
from jcore.desugar import desugar, parse_and_desugar
from jcore.interp import run
from jcore.parser import parse
from pretty import program_str
from test_roundtrip_fuzz import gen_program


def test_call_statement_becomes_call_assignment():
    src = """
    class Z extends Object { unit setg(bool x) { skip } }
    class C extends Object {
      unit m(Z z) { z.setg(true) }
    }
    """
    core = parse_and_desugar(src)
    body = core[1].methods[0].body
    assert body == A.LocalBlock(
        A.UNIT, "$tmp0", A.UnitLit(),
        A.Seq((A.CallAssign("$tmp0", A.Var("z"), "setg", (A.BoolLit(True),)), A.Skip())),
    )


def test_field_new_becomes_local_block():
    src = """
    class B extends Object { }
    class C extends Object {
      B f;
      unit m() { self.f := new B }
    }
    """
    core = parse_and_desugar(src)
    body = core[1].methods[0].body
    assert body == A.LocalBlock(
        A.ClassType("B"), "$tmp0", A.NullLit(),
        A.Seq((
            A.NewAssign("$tmp0", "B"),
            A.FieldAssign(A.Var("self"), "f", A.Var("$tmp0")),
        )),
    )


def test_local_as_a_whole_branch_or_loop_body():
    src = """
    class C extends Object {
      unit m(bool b) { if b then int x := 1 else skip fi; while b do bool y := false in b := y od }
    }
    """
    body = parse_and_desugar(src)[0].methods[0].body
    assert body == A.Seq((
        A.If(A.Var("b"), A.LocalBlock(A.INT, "x", A.IntLit(1), A.Skip()), A.Skip()),
        A.While(A.Var("b"), A.LocalBlock(A.BOOL, "y", A.BoolLit(False), A.Assign("b", A.Var("y")))),
    ))


def test_receiver_call_hoisted_before_argument_calls():
    src = """
    class B extends Object {
      B b() { result := self }
      bool v() { result := true }
      unit m(B x, bool w) { skip }
    }
    class C extends Object {
      unit go(B p) { p.b().m(p.b(), p.v()) }
    }
    """
    core = parse_and_desugar(src)
    body = core[1].methods[0].body
    # receiver first, then arguments left to right, then the call statement
    order = []
    cmd = body
    while isinstance(cmd, A.LocalBlock):
        inner = cmd.body
        assert isinstance(inner, A.Seq)
        order.append((cmd.name, inner.items[0].method))
        cmd = inner.items[1]
    assert [name for name, _ in order] == ["$tmp0", "$tmp1", "$tmp2", "$tmp3"]
    assert [m for _, m in order] == ["b", "b", "v", "m"]


def test_idempotent_on_core_output():
    for rec in load_corpus():
        core = parse_and_desugar(rec.source())
        again = desugar(parse(program_str(core)))
        assert again == core, rec.name


def _count_field_ops_and_news(prog_classes):
    reads = writes = 0
    news = []

    def visit_expr(e):
        nonlocal reads
        for sub in A.walk_exprs(e):
            if isinstance(sub, A.FieldAccess):
                reads += 1
            if isinstance(sub, A.NewExpr):
                news.append(sub.class_name)

    def visit_stmt(s):
        nonlocal writes
        from jcore import parser as P

        if isinstance(s, P.SSeq):
            for it in s.items:
                visit_stmt(it)
        elif isinstance(s, P.SLocal):
            visit_expr(s.rhs)
            if s.body is not None:
                visit_stmt(s.body)
        elif isinstance(s, P.SAssign):
            if isinstance(s.lhs, A.FieldAccess):
                writes += 1
                visit_expr(s.lhs.target)
            visit_expr(s.rhs)
        elif isinstance(s, P.SCallStmt):
            visit_expr(s.call)
        elif isinstance(s, P.SIf):
            visit_expr(s.cond)
            visit_stmt(s.then_seq)
            visit_stmt(s.else_seq)
        elif isinstance(s, P.SWhile):
            visit_expr(s.cond)
            visit_stmt(s.body)

    for c in prog_classes:
        for m in c.methods:
            visit_stmt(m.body)
        if c.constructor is not None:
            visit_stmt(c.constructor)
    return reads, writes, news


def _count_core(decls):
    reads = writes = 0
    news = []
    for c in decls:
        bodies = [m.body for m in c.methods] + [c.constructor]
        for body in bodies:
            for cmd, _ in A.walk_commands(body, {}):
                if isinstance(cmd, A.FieldAssign):
                    writes += 1
                if isinstance(cmd, A.NewAssign):
                    news.append(cmd.class_name)
                for e in exprs_of_command(cmd):
                    for sub in A.walk_exprs(e):
                        if isinstance(sub, A.FieldAccess):
                            reads += 1
    return reads, writes, news


def test_desugar_preserves_field_ops_and_news():
    """Sugar elimination must not change confinement-relevant syntax: no new
    field reads or writes, and the same multiset of constructed classes."""
    for rec in load_corpus():
        prog = parse(rec.source())
        s_reads, s_writes, s_news = _count_field_ops_and_news(prog.classes)
        core = desugar(prog)
        c_reads, c_writes, c_news = _count_core(core)
        assert c_writes == s_writes, rec.name
        assert c_reads == s_reads, rec.name
        assert sorted(c_news) == sorted(s_news), rec.name


def test_hoisted_chain_evaluates_like_manual_form():
    shared = """
    class Observer extends Object { unit notify() { abort } }
    class AnObserver extends Observer {
      int count;
      unit notify() { self.count := self.count + 1 }
    }
    class Node extends Object {
      Observer ob;
      Node nxt;
      unit setOb(Observer o) { self.ob := o }
      unit setNext(Node n) { self.nxt := n }
      Observer getOb() { result := self.ob }
      Node getNext() { result := self.nxt }
    }
    """
    sugared = shared + """
    class Main extends Object {
      AnObserver a;
      AnObserver b;
      unit main() {
        self.a := new AnObserver;
        self.b := new AnObserver;
        Node n2 := new Node;
        n2.setOb(self.b);
        Node n1 := new Node;
        n1.setOb(self.a);
        n1.setNext(n2);
        n1.getNext().getOb().notify()
      }
    }
    """
    manual = shared + """
    class Main extends Object {
      AnObserver a;
      AnObserver b;
      unit main() {
        self.a := new AnObserver;
        self.b := new AnObserver;
        Node n2 := new Node;
        n2.setOb(self.b);
        Node n1 := new Node;
        n1.setOb(self.a);
        n1.setNext(n2);
        Node t0 := n1.getNext();
        Observer t1 := t0.getOb();
        t1.notify()
      }
    }
    """
    outs = []
    for src in (sugared, manual):
        ct = build_class_table(parse_and_desugar(src), Designations("Node", "Observer"))
        res = run(ct, "Main", "main")
        assert res.ok
        h, eta = res.outcome
        main = eta["self"]
        outs.append((h[h[main]["a"]]["count"], h[h[main]["b"]]["count"]))
    assert outs[0] == outs[1] == (0, 1)


def test_fresh_names_avoid_existing_tmp_names():
    src = """
    class Z extends Object { unit p() { skip } }
    class C extends Object {
      unit m(Z z) { int $tmp3 := 0; z.p() }
    }
    """
    core = parse_and_desugar(src)
    names = {cmd.name for cmd, _ in A.walk_commands(core[1].methods[0].body, {}) if isinstance(cmd, A.LocalBlock)}
    assert "$tmp3" in names and "$tmp4" in names


DOLLAR_NAMES = """
class $tmp5 extends Object { $tmp5 $tmp7; unit $tmp9() { skip } }
class C extends Object {
  unit m($tmp5 z) { int x$tmp12y := 0; z.$tmp7 := ($tmp5) z; z.$tmp9(); if z is $tmp5 then skip else skip fi }
}
"""


def test_first_free_tmp_matches_a_scan_of_the_body_repr(corpus):
    """Every name counts, wherever it stands: locals, fields, methods,
    classes, types, and `$tmpN` inside a longer name."""
    progs = [parse(DOLLAR_NAMES)] + [parse(rec.source()) for rec in corpus.values()]
    bodies = [b for p in progs for c in p.classes for b in [c.constructor, *(m.body for m in c.methods)]]
    for body in bodies:
        want = max([-1, *map(int, re.findall(r"\$tmp(\d+)", repr(body)))]) + 1
        assert first_free_tmp(body) == want
    assert first_free_tmp(progs[0].classes[1].methods[0].body) == 13


def _bodies(prog):
    """(parser's first_tmp, body) for every constructor and method body."""
    for c in prog.classes:
        yield c.con_first_tmp, c.constructor
        yield from ((m.first_tmp, m.body) for m in c.methods)


def test_parser_first_tmp_matches_the_walk_and_the_repr_scan(corpus):
    """The counter the parser reads off a body's tokens is the walk oracle's
    and the `repr` scan's, on the corpus, round-trip programs and `$` names;
    a `$tmpN` in a comment or outside the body's braces does not count."""
    rng = random.Random(2718)
    outside = """
    class $tmp7 extends Object { $tmp7 f; unit p() { skip } }
    class C extends Object {
      $tmp7 g;
      con { // $tmp99
        skip }
      unit m($tmp7 z) {
        // $tmp99
        z.p()
      }
    }
    """
    sources = [DOLLAR_NAMES, outside] + [r.source() for r in corpus.values()]
    sources += [program_str(gen_program(rng)) for _ in range(100)]
    counts = []
    for src in sources:
        for got, body in _bodies(parse(src)):
            assert got == first_free_tmp(body) == max([-1, *map(int, re.findall(r"\$tmp(\d+)", repr(body)))]) + 1
            counts.append(got)
    assert counts[:6] == [0, 0, 0, 13, 0, 0] and max(counts[6:]) == 0
    core = parse_and_desugar(outside)
    assert core[1].methods[0].body.name == "$tmp0"


def _kept_off_the_spine(s, c):
    """Walk a surface expression `s` and its core form `c` together: the
    calls become `$tmp` variables, every node above a call is new and every
    other node is the parser's own object. Returns the number of new nodes."""
    if isinstance(s, A.CallExpr):
        assert isinstance(c, A.Var) and c.name.startswith("$tmp")
        return 1
    new = sum([_kept_off_the_spine(getattr(s, k), getattr(c, k)) for k in ("target", "left", "right") if hasattr(s, k)])
    assert (c is not s and type(c) is type(s) and c.span is s.span) if new else c is s
    return new + bool(new)


def test_hoist_keeps_call_free_subtrees():
    src = """
    class C extends Object {
      int f; int g;
      int h(int a) { result := a }
      unit m(int a, int b) {
        self.f := (a + (b - 1)) + self.g;
        self.f := ((((a + 1) - (b mod 2)) + (b - (1 + self.h(a) - 3))) = (a + 2)) is C;
        self.f := a + 1 + 2 + self.h(b) + 3 + 4
      }
    }
    """
    prog = parse(src)
    stmts = prog.classes[0].methods[1].body.items
    first, deep, chain = desugar(prog)[0].methods[1].body.items
    assert first.expr is stmts[0].rhs and first.target is stmts[0].lhs.target
    assert _kept_off_the_spine(stmts[0].rhs, first.expr) == 0
    # a call in the rhs binds a fresh local around the assignment
    assert _kept_off_the_spine(stmts[1].rhs, deep.body.items[1].expr) == 1 + 6
    assert _kept_off_the_spine(stmts[2].rhs, chain.body.items[1].expr) == 1 + 3


def test_effectful_while_guard_reevaluated():
    src = """
    class Counter extends Object {
      int n;
      bool tick() { self.n := self.n + 1; result := self.n < 3 }
    }
    class Main extends Object {
      int seen;
      unit main() {
        Counter c := new Counter;
        while c.tick() do self.seen := self.seen + 1 od
      }
    }
    """
    ct = build_class_table(parse_and_desugar(src))
    res = run(ct, "Main", "main")
    assert res.ok
    h, eta = res.outcome
    main = eta["self"]
    counter = next(l for l in h if l.class_name == "Counter")
    assert h[counter]["n"] == 3
    assert h[main]["seen"] == 2
