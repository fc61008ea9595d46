"""One execution at the budget answers iterative deepening: `run`,
`run_with_monitor` and `client_equiv` report what re-executing from scratch
at fuel 1, 2, 4, ..., budget reports (the oracles in `helpers`)."""

import pytest

from helpers import deepening_equiv, deepening_run, run_facts
from jcore.classtable import build_class_table, load_table
from jcore.confine import ConfinementMonitor, run_with_monitor
from jcore.corpus import equiv_expectations
from jcore.desugar import parse_and_desugar
from jcore.equivalence import client_equiv, load_manifest
from jcore.interp import run

BUDGETS = (1, 2, 3, 4, 1024)


def _table(src):
    return build_class_table(parse_and_desugar(src))


def _down(k):
    """`Main.main` stores `down(k)`: k + 1 nested calls, so it needs fuel k + 1."""
    return _table(
        "class D extends Object {\n"
        "  int down(int n) { if n = 0 then result := 0 else result := self.down(n - 1) + 1 fi }\n"
        "}\n"
        "class Main extends Object {\n  int out;\n"
        f"  unit main() {{ D d := new D; self.out := d.down({k}) }}\n}}\n"
    )


def _assert_same(ct, entry_class, entry_method, max_fuel, loop_cap=100000):
    got = run(ct, entry_class, entry_method, max_fuel=max_fuel, loop_cap=loop_cap)
    want = deepening_run(ct, entry_class, entry_method, max_fuel=max_fuel, loop_cap=loop_cap)
    assert run_facts(got) == run_facts(want), (entry_class, entry_method, max_fuel)
    return got


def test_run_matches_deepening_on_the_corpus(corpus, tables):
    for name, rec in corpus.items():
        for e in rec.entries:
            for max_fuel in BUDGETS:
                _assert_same(tables[name], e.entry_class, e.entry_method, max_fuel)


@pytest.mark.parametrize("checkpoints", ["every", "calls"])
def test_monitored_run_matches_deepening_on_the_corpus(corpus, tables, checkpoints):
    for name, rec in corpus.items():
        ct = tables[name]
        if ct.designations is None:
            continue
        for e in rec.entries:
            for max_fuel in BUDGETS:
                got = run_with_monitor(ct, e.entry_class, e.entry_method, max_fuel=max_fuel,
                                       checkpoints=checkpoints)
                monitor = ConfinementMonitor(ct, checkpoints)
                want = deepening_run(ct, e.entry_class, e.entry_method, max_fuel=max_fuel, hooks=monitor)
                assert run_facts(*got) == run_facts(want, monitor.violations), (name, max_fuel)


def test_run_matches_deepening_on_call_depth():
    for k in range(71):
        ct = _down(k)
        for max_fuel in (1, 2, 3, 5, 8, 33, 64, 65, 100, 1024):
            got = _assert_same(ct, "Main", "main", max_fuel)
            assert got.ok == (max_fuel >= k + 1), (k, max_fuel)


def test_run_matches_deepening_on_bottoms_and_a_call_free_entry():
    cases = {
        "loop cap after a call": (
            "class Main extends Object {\n  int out;\n"
            "  int one() { result := 1 }\n"
            "  unit main() { self.out := self.one(); while true do skip od }\n}\n"
        ),
        "call in the entry constructor": (
            "class Main extends Object {\n  int out;\n"
            "  con { self.out := self.one() }\n"
            "  int one() { result := 1 }\n"
            "  unit main() { self.out := self.one() }\n}\n"
        ),
        "call in a constructor the body runs": (
            "class C extends Object {\n  int v;\n"
            "  con { self.v := self.one() }\n"
            "  int one() { result := 1 }\n}\n"
            "class Main extends Object {\n"
            "  int one() { result := 1 }\n"
            "  unit main() { int x := self.one(); C c := new C; skip }\n}\n"
        ),
        "abort under a call chain": (
            "class Main extends Object {\n  int out;\n"
            "  int a() { result := self.b() }\n"
            "  int b() { result := self.c() }\n"
            "  int c() { abort }\n"
            "  unit main() { self.out := self.a() }\n}\n"
        ),
        "call-free entry": (
            "class Main extends Object {\n  int out;\n"
            "  unit main() { self.out := 3; if self.out = 3 then skip else abort fi }\n}\n"
        ),
    }
    for what, src in cases.items():
        ct = _table(src)
        for max_fuel in (1, 2, 3, 4, 5, 8, 1024):
            got = _assert_same(ct, "Main", "main", max_fuel, loop_cap=50)
            if what == "call-free entry":
                assert got.ok and got.fuel_used == 1, what
            elif what in ("loop cap after a call", "call in a constructor the body runs"):
                assert got.outcome.is_fuel() and got.fuel_used == max_fuel, what
            elif what == "call in the entry constructor":
                assert got.outcome.is_fuel() and got.fuel_used == 1, what
            elif what == "abort under a call chain":  # three calls deep
                assert (got.outcome.reason == "explicit-abort") == (max_fuel >= 3), (what, max_fuel)


def test_client_equiv_matches_deepening_on_the_manifests():
    manifests = [load_manifest(p) for p, _ in equiv_expectations()]
    assert len(manifests) == 10
    for m in manifests:
        des = m.designations()
        ct_a, ct_b = load_table(m.table_a, des), load_table(m.table_b, des)
        for max_fuel in (1, 2, 3, 4, 5, 8, 1024):
            got = client_equiv(ct_a, ct_b, m.entry_class, m.entry_method,
                               max_fuel=max_fuel, loop_cap=m.loop_cap)
            want = deepening_equiv(ct_a, ct_b, m.entry_class, m.entry_method,
                                   max_fuel=max_fuel, loop_cap=m.loop_cap)
            assert got == want, (m.path, max_fuel)
