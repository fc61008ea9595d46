"""A command node shared by two declarations runs under each declaration's
own context. Desugaring builds a fresh tree per body, but a table built
through the library API may share nodes; both tables here type-check and
pass the safety analysis, and each run must match the tree walker."""

import dataclasses

from helpers import TreeWalkRuntime, runtime_swapped

from jcore import ast as A
from jcore.classtable import Designations, build_class_table
from jcore.confine import run_with_monitor
from jcore.desugar import parse_and_desugar
from jcore.interp import Location, run
from jcore.safety import safe_table
from jcore.typecheck import check_table


def _table(src, des=None, share=lambda decls: decls):
    ct = build_class_table(share(parse_and_desugar(src)), des)
    assert check_table(ct).ok
    if des is not None:
        assert safe_table(ct).ok
    return ct


def _both(fn):
    """`fn()` under the compiled runtime, then under the tree walker."""
    compiled = fn()
    with runtime_swapped(TreeWalkRuntime):
        return compiled, fn()


def test_a_shared_constructor_runs_under_each_class_context():
    src = """
    class Rep extends Object { }
    class Own extends Object { Rep r; unit init() { Rep x := new Rep; self.r := x } }
    class Main extends Object { Own o; unit main() { Own y := new Own; y.init(); self.o := y } }
    """
    skip = A.Skip()

    def share(decls):
        return [dataclasses.replace(d, constructor=skip) for d in decls]

    ct = _table(src, Designations("Own", "Rep"), share)
    assert len({id(d.constructor) for d in ct.decls.values()}) == 1
    compiled, walked = _both(lambda: [v.render() for v in run_with_monitor(ct, "Main", "main")[1]])
    assert compiled == walked == []


def test_a_shared_super_call_runs_under_each_class_context():
    src = """
    class P1 extends Object { int m() { result := 1 } }
    class P2 extends Object { int m() { result := 2 } }
    class B extends P1 { int n() { result := super.m() } }
    class C extends P2 { int n() { result := super.m() } }
    class Main extends Object {
      int b; int c;
      unit main() { B x := new B; C y := new C; self.b := x.n(); self.c := y.n() }
    }
    """

    def share(decls):
        by_name = {d.name: d for d in decls}
        body = by_name["B"].methods[0].body
        shared = dataclasses.replace(by_name["C"].methods[0], body=body)
        return [dataclasses.replace(d, methods=(shared,)) if d.name == "C" else d for d in decls]

    ct = _table(src, share=share)
    assert ct.decls["B"].methods[0].body is ct.decls["C"].methods[0].body

    def finals():
        h, _ = run(ct, "Main", "main").outcome
        return h[Location("Main", 0)]

    compiled, walked = _both(finals)
    assert compiled == walked == {"b": 1, "c": 2}
