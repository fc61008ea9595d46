"""Acceptance suite: one test per criterion, one PASS line per criterion.

Every tolerance is pinned here; nothing is deferred. Timing bounds are
asserted with wall clocks on the machine running the suite.
"""

import random
import time

from helpers import (
    all_typed_bijections, brute_force_confining, brute_force_state_bijection,
    client_table, heap_closed, heap_well_typed, random_client_state, random_heap, rename_state,
    roles_table, store_closed, value_in_type,
)

from jcore.classtable import Designations, build_class_table
from jcore.confine import Partition, confine_heap, run_with_monitor
from jcore.corpus import equiv_expectations
from jcore.coupling import BUILTIN_COUPLINGS, Step, generate_scripts, run_vector
from jcore.coupling import test_simulation as simulate
from jcore.desugar import parse_and_desugar
from jcore.equivalence import canonical_bijection, load_manifest, run_manifest
from jcore.interp import Bottom, InterpHooks, Location, Runtime, fresh, run
from jcore.safety import safe_table
from jcore.typecheck import check_table


def _report(n, ok, detail=""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_1_corpus_acceptance(corpus, tables):
    t0 = time.monotonic()
    rejected = {"obool_bad_v1", "obool_bad_v2", "obool_bad_object", "obool_bad_leak"}
    for name, rec in corpus.items():
        ct = tables[name]
        assert check_table(ct).ok, f"{name} fails check"
        rules = safe_table(ct).rules()
        if name in rejected:
            assert rules == {"OwnerPublicReturnsRep"}, name
        else:
            assert not rules, (name, rules)
    # a client constructing a rep is rejected
    src = corpus["observer_v1"].source() + """
    class Intruder extends Object {
      unit smuggle() { Node n := new Node; skip }
    }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Observable", "Node"))
    assert "NewRepInClient" in safe_table(ct).rules()
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 1.0, f"corpus check+analyze in {elapsed:.2f}s (< 1s)")


def test_criterion_2_behavioral_fixtures(tables):
    res = run(tables["observer_v1"], "Main", "main")
    assert res.ok
    h, eta = res.outcome
    count = h[h[eta["self"]]["ob"]]["count"]
    assert count == 1
    for name in ("meyer_sieber_v1", "meyer_sieber_v2"):
        out = run(tables[name], "Main", "main").outcome
        assert isinstance(out, Bottom) and out.reason == "explicit-abort", name
    _report(2, True, "ob.count = 1; both callback versions abort")


def test_criterion_3_equivalence_verdicts():
    t0 = time.monotonic()
    slowest = 0.0
    for mpath, verdict in equiv_expectations():
        t1 = time.monotonic()
        got = run_manifest(load_manifest(mpath))
        dt = time.monotonic() - t1
        slowest = max(slowest, dt)
        assert got.kind == verdict, (mpath, got.kind)
        assert dt < 1.0, (mpath, dt)
    _report(3, True, f"10 manifests exact; slowest run {slowest*1000:.0f}ms (< 1s each)")


def test_criterion_4_known_limit(known_limit_pair):
    ct_a, ct_b = known_limit_pair
    bc = BUILTIN_COUPLINGS["observer-node-list"]

    def script(n_adds):
        steps = [Step("new", "o", "Observable"), Step("new", "c0", "AnObserver")]
        steps += [Step("call", "o", "add", (("root", "c0"),), None)] * n_adds
        steps.append(Step("call", "o", "notifyAll", (), None))
        return tuple(steps)

    witnesses = []
    for fuel in (1, 2, 4):
        length = fuel + 1
        res = run_vector(ct_a, ct_b, bc, script(length), fuel)
        assert res.status == "fail" and "fuel-exhausted" in res.message, (fuel, length)
        witnesses.append((fuel, length))
        # the same scripts converge at large fuel
        assert run_vector(ct_a, ct_b, bc, script(length), 16).status == "pass"
    _report(4, True, f"loop vs recursion diverges at (fuel, length) = {witnesses}")


def test_criterion_5_confinement_vs_brute_force():
    t0 = time.monotonic()
    ct = roles_table()
    rng = random.Random(20260810)
    agreements = 0
    for _ in range(1000):
        h = random_heap(ct, rng, max_objects=8)
        ours = confine_heap(ct, h)
        brute = brute_force_confining(ct, h)
        assert isinstance(ours, Partition) == (brute is not None)
        agreements += 1
    elapsed = time.monotonic() - t0
    _report(5, elapsed < 10.0, f"1000/1000 heaps agree with brute force in {elapsed:.2f}s (< 10s)")


def test_criterion_6_soundness_differential(corpus, tables):
    clean = 0
    for name, rec in corpus.items():
        ct = tables[name]
        if safe_table(ct).rules():
            continue
        for e in rec.entries:
            _, violations = run_with_monitor(ct, e.entry_class, e.entry_method, checkpoints="every")
            assert not violations, (name, [v.render() for v in violations])
            clean += 1
    _, violations = run_with_monitor(tables["obool_bad_leak"], "Main", "main", checkpoints="every")
    assert "ClientToRep" in {v.kind for v in violations}
    _report(6, True, f"{clean} accepted entries monitor-clean; leak flags ClientToRep")


class _InvariantHooks(InterpHooks):
    def __init__(self, ct):
        self.ct = ct
        self.commands = 0

    def after_command(self, gamma, cmd, outcome):
        if isinstance(outcome, Bottom):
            return
        h, eta = outcome
        assert heap_closed(h)
        assert store_closed(h, eta)
        assert heap_well_typed(self.ct, h)
        for x, t in gamma.items():
            assert value_in_type(self.ct, eta[x], t), (x, t, eta[x])
        self.commands += 1


def test_criterion_7_interpreter_invariants(corpus, tables):
    # randomized corpus-derived executions with invariant checks at every step
    executions = 0
    commands = 0
    driver_tables = [
        "obool_v1", "obool_v2", "observer_v1", "observer_sentinel",
        "observer_factory", "meyer_sieber_v1", "observer_groups",
    ]
    for name in driver_tables:
        ct = tables[name]
        own_classes = [ct.designations.own]
        subs = [c for c in sorted(ct.decls) if c != own_classes[0] and ct.subtype_names(c, own_classes[0])]
        own_classes += subs[:1]
        for oc in own_classes:
            scripts = generate_scripts(ct, oc, max_len=3, max_scripts=60)
            for script in scripts:
                for fuel in (2, 8):
                    hooks = _InvariantHooks(ct)
                    rt = Runtime(ct, hooks=hooks)
                    heap, roots = {}, {}
                    for st in script:
                        from jcore.coupling import _exec_step

                        bot, heap = _exec_step(rt, heap, roots, st, fuel)
                        if bot is not None:
                            break
                    executions += 1
                    commands += hooks.commands
    assert executions >= 1000, executions
    # fuel monotonicity on every corpus entry, fuels 1..32
    for name, rec in corpus.items():
        ct = tables[name]
        for e in rec.entries:
            settled = None
            for fuel in range(1, 33):
                out = run(ct, e.entry_class, e.entry_method, max_fuel=fuel).outcome
                if isinstance(out, Bottom) and out.is_fuel():
                    assert settled is None, (name, fuel)
                    continue
                key = out.reason if isinstance(out, Bottom) else out
                if settled is None:
                    settled = key
                else:
                    assert key == settled, (name, fuel)
    _report(7, True, f"{executions} executions, {commands} checked steps; fuels 1..32 monotone")


def test_criterion_8_allocator_parametricity():
    rng = random.Random(8)
    classes = ["A", "B", "C"]
    for _ in range(1000):
        target = rng.choice(classes)
        shared = {Location(target, rng.randrange(12)) for _ in range(rng.randrange(6))}
        h1 = {loc: {} for loc in shared}
        h2 = {loc: {} for loc in shared}
        for h in (h1, h2):
            for _ in range(rng.randrange(5)):
                other = rng.choice([c for c in classes if c != target])
                h[Location(other, rng.randrange(12))] = {}
        assert fresh(target, h1) == fresh(target, h2)
    _report(8, True, "1000/1000 equal-slice heap pairs allocate identically")


def test_criterion_9_bijection_completeness():
    ct = client_table()
    rng = random.Random(9)
    agreements = 0
    for i in range(500):
        state = random_client_state(ct, rng, max_locs=6)
        other = rename_state(ct, state, rng)
        if i % 2:
            h2, eta2 = other
            locs = sorted(h2)
            l = rng.choice(locs)
            st = dict(h2[l])
            field = rng.choice([f for f in st])
            if isinstance(st[field], bool):
                st[field] = not st[field]
            elif isinstance(st[field], int):
                st[field] = st[field] + 1
            else:
                st[field] = None if st[field] is not None else l
            h2 = dict(h2)
            h2[l] = st
            other = (h2, eta2)
        ours = canonical_bijection(ct, state, other)
        brute = brute_force_state_bijection(ct, state, other)
        assert isinstance(ours, dict) == (brute is not None), i
        agreements += 1
    _report(9, agreements == 500, f"{agreements}/500 state pairs agree with brute-force search")


def test_criterion_10_simulation_harness(obool_pair, meyer_pair, observer_pair, obool_bad_pair):
    t0 = time.monotonic()
    cases = [
        (obool_pair, "obool-negation"),
        (meyer_pair, "meyer-sieber-even"),
        (observer_pair, "observer-sentinel-list"),
    ]
    for (ct_a, ct_b), bcname in cases:
        report = simulate(ct_a, ct_b, BUILTIN_COUPLINGS[bcname], fuels=(1, 2, 4, 8), max_len=4)
        assert report.ok, (bcname, [v.message for v in report.failures()[:3]])
        assert all(ok for _, ok, _ in report.establishment)
        own = ct_a.designations.own
        cov = report.method_coverage()
        for m in ct_a.method_names(own):
            if not ct_a.mscope(m, own) or (m, own) in ct_a.prot_methods():
                assert cov.get(m, (0, 0))[0] > 0, (bcname, m)
    ct_a, ct_b = obool_bad_pair
    report = simulate(ct_a, ct_b, BUILTIN_COUPLINGS["obool-negation"], fuels=(1, 2, 4, 8))
    assert not report.ok
    assert report.failures()
    elapsed = time.monotonic() - t0
    _report(10, elapsed < 30.0, f"3 coupled pairs pass, leak pair fails, in {elapsed:.2f}s (< 30s)")
