"""Differential soundness fuzzing: compose random tables from statement
templates with known safety status, then check that the static analysis
accepts exactly the leak-free compositions and that every accepted table is
confinement-clean under the dynamic monitor on generated drivers."""

import random

from helpers import deepening_run, run_facts
from jcore.classtable import Designations, build_class_table
from jcore.confine import ConfinementMonitor, run_with_monitor
from jcore.coupling import _exec_step, generate_scripts
from jcore.desugar import parse_and_desugar
from jcore.interp import Runtime
from jcore.safety import safe_table
from jcore.typecheck import check_table

# (name, safe?, needs, rendered method)
OWN_TEMPLATES = [
    ("ini", True, (), "unit ini() { self.r := new Rep2 }"),
    ("grow", True, (), "unit grow() { Rep2 n := new Rep2; n.setlink(self.r); self.r := n }"),
    ("size", True, (), "int size() { result := self.count }"),
    ("bump", True, (), "unit bump() { self.count := self.count + 1 }"),
    ("touch", True, (), "unit touch(Helper x) { x.ping() }"),
    ("first", True, (), "module Rep2 first() { result := self.r }"),
    ("leak", False, (), "Rep2 leak() { result := self.r }"),
    ("peek", False, (), "unit peek(Own2 o) { Rep2 t := o.r; skip }"),
    ("give", False, (), "unit give(Helper x) { x.keep(self.r) }"),
]

SUB_TEMPLATES = [
    ("use", True, ("first",), "unit use() { Rep2 t := self.first(); t.setv(3) }"),
    ("remake", True, ("first",), "unit remake() { Rep2 n := new Rep2; n.setlink(self.first()); skip }"),
    ("stash", False, ("first",), "unit stash() { self.cache := self.first() }"),
]

MAIN_TEMPLATES = [
    ("drive", True, ("ini", "bump", "size"), "z.ini(); z.bump(); self.out := z.size()"),
    ("social", True, ("touch",), "self.h := new Helper; z.touch(self.h)"),
    ("regrow", True, ("ini", "grow"), "z.ini(); z.grow()"),
    ("forge", False, (), "Rep2 n := new Rep2; skip"),
]

SKELETON = """
class Rep2 extends Object {{
  Rep2 link;
  int v;
  unit setv(int x) {{ self.v := x }}
  unit setlink(Rep2 n) {{ self.link := n }}
}}

class Helper extends Object {{
  int seen;
  unit ping() {{ self.seen := self.seen + 1 }}
  unit keep(Rep2 n) {{ skip }}
}}

class Own2 extends Object {{
  Rep2 r;
  int count;
{own_methods}
}}

class SubOwn2 extends Own2 {{
{sub_fields}
{sub_methods}
}}

class Main extends Object {{
  int out;
  Helper h;
  unit main() {{
    Own2 z := new Own2;
{main_body}
  }}
}}
"""


def _pick(rng, templates):
    # unsafe templates are rarer so that fully-safe compositions show up often
    return [t for t in templates if rng.random() < (0.6 if t[1] else 0.25)]


def _compose(rng):
    own_names = {t[0] for t in OWN_TEMPLATES}
    chosen_own = _pick(rng, OWN_TEMPLATES)
    chosen_sub = _pick(rng, SUB_TEMPLATES)
    needed = {n for t in chosen_sub for n in t[2] if n in own_names}
    chosen_own += [t for t in OWN_TEMPLATES if t[0] in needed and t not in chosen_own]
    own_chosen_names = {t[0] for t in chosen_own}
    mains = [t for t in _pick(rng, MAIN_TEMPLATES) if set(t[2]) <= own_chosen_names]
    src = SKELETON.format(
        own_methods="\n".join(f"  {t[3]}" for t in chosen_own),
        sub_fields="  Rep2 cache;" if any(t[0] == "stash" for t in chosen_sub) else "",
        sub_methods="\n".join(f"  {t[3]}" for t in chosen_sub),
        main_body="\n".join(f"    {t[3]};" for t in mains) + "    skip",
    )
    all_safe = all(t[1] for t in chosen_own + chosen_sub + mains)
    return src, all_safe


def test_analysis_accepts_exactly_the_safe_compositions():
    rng = random.Random(1234)
    accepted = rejected = 0
    for _ in range(80):
        src, all_safe = _compose(rng)
        ct = build_class_table(parse_and_desugar(src), Designations("Own2", "Rep2"))
        assert check_table(ct).ok, src
        report = safe_table(ct)
        assert report.ok == all_safe, (sorted(report.rules()), src)
        accepted += report.ok
        rejected += not report.ok
    assert accepted >= 10 and rejected >= 10


def test_accepted_compositions_are_monitor_clean():
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        src, all_safe = _compose(rng)
        if not all_safe:
            continue
        ct = build_class_table(parse_and_desugar(src), Designations("Own2", "Rep2"))
        if not safe_table(ct).ok:
            continue
        _, violations = run_with_monitor(ct, "Main", "main", checkpoints="every")
        assert not violations, (src, [v.render() for v in violations])
        for oc in ("Own2", "SubOwn2"):
            for script in generate_scripts(ct, oc, max_len=3, max_scripts=25):
                monitor = ConfinementMonitor(ct, "every")
                rt = Runtime(ct, hooks=monitor)
                heap, roots = {}, {}
                for st in script:
                    bot, heap = _exec_step(rt, heap, roots, st, 8)
                    if bot is not None:
                        break
                assert not monitor.violations, (
                    src, [s.method or s.op for s in script],
                    [v.render() for v in monitor.violations],
                )
        checked += 1


def test_monitor_catches_what_the_analysis_rejects():
    """The dual direction on one concrete case: a sub-owner stashing a rep in
    its own field is statically rejected, and actually running it produces a
    confinement violation the monitor reports."""
    src = SKELETON.format(
        own_methods="  unit ini() { self.r := new Rep2 }\n  module Rep2 first() { result := self.r }",
        sub_fields="  Rep2 cache;",
        sub_methods="  unit stash() { self.cache := self.first() }",
        main_body="    skip",
    )
    ct = build_class_table(parse_and_desugar(src), Designations("Own2", "Rep2"))
    report = safe_table(ct)
    assert "NonSelfPrivateUpdate" in report.rules()
    monitor = ConfinementMonitor(ct, "every")
    rt = Runtime(ct, hooks=monitor)
    h, sub = rt.new_object("SubOwn2", {})
    h, _ = rt.invoke(sub, "ini", [], h, 8)
    h, _ = rt.invoke(sub, "stash", [], h, 8)
    kinds = {v.kind for v in monitor.violations}
    assert "NonPrivateOwnerEdge" in kinds, kinds


def test_monitor_partition_agrees_with_confine_heap_on_the_fuzz_runs(partition_oracles):
    """The runs and call scripts of the two monitor tests above, again, with
    confine_heap checking the monitor's followed partition at each of its
    checkpoints."""
    test_accepted_compositions_are_monitor_clean()
    test_monitor_catches_what_the_analysis_rejects()
    assert sum(o.checks for o in partition_oracles) > 10000


def test_monitored_fuzz_runs_match_deepening():
    """`run_with_monitor` on the compositions of the monitor tests above, safe
    and unsafe, reports what iterative deepening with one monitor reports."""
    rng = random.Random(99)
    accepted = violating = 0
    while accepted < 25:
        src, all_safe = _compose(rng)
        ct = build_class_table(parse_and_desugar(src), Designations("Own2", "Rep2"))
        for checkpoints in ("every", "calls"):
            got = run_with_monitor(ct, "Main", "main", checkpoints=checkpoints)
            monitor = ConfinementMonitor(ct, checkpoints)
            want = deepening_run(ct, "Main", "main", hooks=monitor)
            assert run_facts(*got) == run_facts(want, monitor.violations), src
            violating += bool(got[1])
        accepted += all_safe and safe_table(ct).ok
    assert violating
