import random
from types import SimpleNamespace

from helpers import (
    assert_partition_agrees, brute_force_confining, forced_map, observer_n, partition_clauses_hold,
    random_heap, roles_table,
)

from jcore import ast as A
from jcore import confine
from jcore.classtable import Designations, build_class_table
from jcore.confine import (
    ConfinementMonitor, ConfinementViolation, Partition, check_hext, confine_heap,
    confined_store, run_with_monitor, to_dot,
)
from jcore.desugar import parse_and_desugar
from jcore.interp import IT, Location, Runtime, default_value, fresh, run


def _obs_state(tables, n_observables=2):
    """Heap with n observables, each owning a one-node list to one observer."""
    ct = tables["observer_v1"]
    rt = Runtime(ct)
    h = {}
    roots = {}
    for i in range(n_observables):
        h, obs = rt.new_object("AnObserver", h)
        h, obl = rt.new_object("Observable", h)
        h, _ = rt.invoke(obl, "add", [obs], h, 4)
        roots[f"obs{i}"] = obs
        roots[f"obl{i}"] = obl
    return ct, h, roots


def test_two_islands_and_clients(tables):
    ct, h, roots = _obs_state(tables)
    part = confine_heap(ct, h)
    assert isinstance(part, Partition)
    assert len(part.islands) == 2
    assert all(len(reps) == 1 for _, reps in part.islands)
    assert len(part.clients) == 2
    assert not part.flexible


def test_empty_heap_partition(tables):
    part = confine_heap(tables["observer_v1"], {})
    assert isinstance(part, Partition)
    assert part.islands == [] and not part.clients


def test_client_to_rep_edge_detected(tables):
    ct, h, roots = _obs_state(tables, 1)
    # plant a rep location into a client field by hand
    node = next(l for l in h if l.class_name == "Node")
    obs = roots["obs0"]
    h2 = dict(h)
    st = dict(h2[obs])
    # AnObserver has only `count`; hand-build a hostile state instead
    main = Location("Main", 0)
    h2[main] = {"ob": node}
    out = confine_heap(ct, h2)
    assert isinstance(out, ConfinementViolation)
    assert out.kind == "ClientToRep"
    assert node in out.witness


def test_non_private_owner_edge():
    ct = roles_table()
    own, sub, rep = Location("SubOwn", 0), Location("SubOwn", 1), Location("Rep", 0)
    h = {
        own: {"po": None, "pr": None, "pc": None, "sr": rep, "sc": None},
        rep: {"ro": None, "rr": None, "rc": None},
    }
    out = confine_heap(ct, h)
    assert isinstance(out, ConfinementViolation)
    assert out.kind == "NonPrivateOwnerEdge"


def test_shared_rep_detected():
    ct = roles_table()
    o1, o2, rep = Location("Own", 0), Location("Own", 1), Location("Rep", 0)
    h = {
        o1: {"po": None, "pr": rep, "pc": None},
        o2: {"po": None, "pr": rep, "pc": None},
        rep: {"ro": None, "rr": None, "rc": None},
    }
    out = confine_heap(ct, h)
    assert isinstance(out, ConfinementViolation)
    assert out.kind == "SharedRep"


def test_rep_escapes_island():
    ct = roles_table()
    o1, o2, rep = Location("Own", 0), Location("Own", 1), Location("Rep", 0)
    h = {
        o1: {"po": None, "pr": rep, "pc": None},
        o2: {"po": None, "pr": None, "pc": None},
        rep: {"ro": o2, "rr": None, "rc": None},
    }
    out = confine_heap(ct, h)
    assert isinstance(out, ConfinementViolation)
    assert out.kind == "RepEscapesIsland"


def test_rep_without_owner():
    ct = roles_table()
    rep = Location("Rep", 0)
    h = {rep: {"ro": None, "rr": None, "rc": None}}
    out = confine_heap(ct, h)
    assert isinstance(out, ConfinementViolation)
    assert out.kind == "RepWithoutOwner"


def test_confined_store_client_holding_rep(tables):
    ct, h, roots = _obs_state(tables, 1)
    part = confine_heap(ct, h)
    node = next(l for l in h if l.class_name == "Node")
    out = confined_store(ct, "Main", {"self": Location("Main", 0), "w": node}, part)
    assert out is not None and out.kind == "StoreViolation"
    assert confined_store(ct, "Main", {"self": Location("Main", 0), "x": None, "n": 3}, part) is None


def test_confined_store_owner_flexible_rep():
    ct = roles_table()
    own, rep = Location("Own", 0), Location("Rep", 0)
    h = {
        own: {"po": None, "pr": None, "pc": None},
        rep: {"ro": None, "rr": None, "rc": None},
    }
    part = confine_heap(ct, h)
    assert isinstance(part, Partition) and rep in part.flexible
    # a fresh unattached rep held in an owner local is fine
    assert confined_store(ct, "Own", {"self": own, "n": rep}, part) is None


def test_confined_store_owner_foreign_rep():
    ct = roles_table()
    o1, o2, rep = Location("Own", 0), Location("Own", 1), Location("Rep", 0)
    h = {
        o1: {"po": None, "pr": rep, "pc": None},
        o2: {"po": None, "pr": None, "pc": None},
        rep: {"ro": None, "rr": None, "rc": None},
    }
    part = confine_heap(ct, h)
    out = confined_store(ct, "Own", {"self": o2, "n": rep}, part)
    assert out is not None and out.kind == "StoreViolation"


def test_confined_store_rep_code():
    ct = roles_table()
    o1, rep1, rep2 = Location("Own", 0), Location("Rep", 0), Location("Rep", 1)
    h = {
        o1: {"po": None, "pr": rep1, "pc": None},
        rep1: {"ro": None, "rr": None, "rc": None},
        rep2: {"ro": None, "rr": None, "rc": None},
    }
    part = confine_heap(ct, h)
    assert confined_store(ct, "Rep", {"self": rep1, "o": o1}, part) is None
    o2 = Location("Own", 1)
    h2 = dict(h)
    h2[o2] = {"po": None, "pr": None, "pc": None}
    part2 = confine_heap(ct, h2)
    out = confined_store(ct, "Rep", {"self": rep1, "o": o2}, part2)
    assert out is not None and out.kind == "StoreViolation"


def test_hext_identical_and_growth(tables):
    ct, h, roots = _obs_state(tables, 1)
    part = confine_heap(ct, h)
    assert check_hext(ct, part, h) is None
    rt = Runtime(ct)
    h2, obs2 = rt.new_object("AnObserver", h)
    obl = roots["obl0"]
    h2, _ = rt.invoke(obl, "add", [obs2], h2, 4)
    assert check_hext(ct, part, h2) is None


def test_hext_rejects_ownership_transfer():
    ct = roles_table()
    o1, o2, rep = Location("Own", 0), Location("Own", 1), Location("Rep", 0)
    pre = {
        o1: {"po": None, "pr": rep, "pc": None},
        o2: {"po": None, "pr": None, "pc": None},
        rep: {"ro": None, "rr": None, "rc": None},
    }
    post = {
        o1: {"po": None, "pr": None, "pc": None},
        o2: {"po": None, "pr": rep, "pc": None},
        rep: {"ro": None, "rr": None, "rc": None},
    }
    part = confine_heap(ct, pre)
    out = check_hext(ct, part, post)
    assert out is not None and out.kind == "ExtensionViolation"


def test_hext_transitive_along_execution(tables):
    ct = tables["observer_sentinel"]
    rt = Runtime(ct)
    h0, obl = rt.new_object("Observable", {})
    h0, obs = rt.new_object("AnObserver", h0)
    p0 = confine_heap(ct, h0)
    h1, _ = rt.invoke(obl, "add", [obs], h0, 4)
    p1 = confine_heap(ct, h1)
    h2, _ = rt.invoke(obl, "add", [obs], h1, 4)
    assert check_hext(ct, p0, h1) is None
    assert check_hext(ct, p1, h2) is None
    assert check_hext(ct, p0, h2) is None


MOVE_REP_SRC = """
class Rep extends Object { int v; }
class Own extends Object {
  Rep r;
  unit init() { self.r := new Rep }
  unit give(Own other) { other.r := self.r; self.r := null }
}
class Main extends Object {
  unit main() {
    Own a := new Own;
    Own b := new Own;
    a.init();
    a.give(b)
  }
}
"""


def test_monitor_flags_rep_moved_to_another_island():
    # The heaps before and after a.give(b) are each confined; only the
    # extension check against the partition from before the call sees the
    # rep change islands.
    ct = build_class_table(parse_and_desugar(MOVE_REP_SRC), Designations("Own", "Rep"))
    for checkpoints in ("calls", "every"):
        res, violations = run_with_monitor(ct, "Main", "main", checkpoints=checkpoints)
        assert res.ok
        moved = [v for v in violations if v.kind == "ExtensionViolation"]
        assert [(v.message, v.context) for v in moved] == [(
            "rep Rep@0 moved from the island of Own@0 to the island of Own@1",
            "return of call at 13:5",
        )], checkpoints


SWAP_REPS_SRC = """
class Rep extends Object { int v; }
class Own extends Object {
  Rep r;
  unit init() { self.r := new Rep }
  unit swap(Own other) { Rep t := other.r; other.r := self.r; self.r := t }
}
class Main extends Object {
  unit main() {
    Own a := new Own;
    Own b := new Own;
    a.init();
    b.init();
    b.swap(a)
  }
}
"""


def test_monitor_reports_the_least_rep_of_a_swap():
    # `other.r := self.r` first unties Rep@0 from Own@0, then finds Rep@1
    # shared; the report names Rep@0, whose move began in that write.
    ct = build_class_table(parse_and_desugar(SWAP_REPS_SRC), Designations("Own", "Rep"))
    moved = ("ExtensionViolation", "rep Rep@0 moved from the island of Own@0 to the island of Own@1",
             "return of call at 14:5")
    shared = ("SharedRep", "rep component is tied to both owner Own@0 and owner Own@1", "after command at 6:44")
    for checkpoints, want in (("calls", [moved]), ("every", [shared, moved])):
        res, violations = run_with_monitor(ct, "Main", "main", checkpoints=checkpoints)
        assert res.ok
        assert [(v.kind, v.message, v.context) for v in violations] == want, checkpoints


def test_monitor_clean_on_safe_corpus(corpus, tables):
    for name, rec in corpus.items():
        if rec.analyze:
            continue
        ct = tables[name]
        for e in rec.entries:
            _, violations = run_with_monitor(ct, e.entry_class, e.entry_method)
            assert not violations, (name, [v.render() for v in violations])


def test_monitor_flags_leak_to_field(tables):
    ct = tables["obool_bad_leak"]
    _, violations = run_with_monitor(ct, "Main", "main")
    assert "ClientToRep" in {v.kind for v in violations}


def test_monitor_flags_rep_result(tables):
    ct = tables["obool_bad_v1"]
    _, violations = run_with_monitor(ct, "Main", "main", checkpoints="calls")
    kinds = {v.kind for v in violations}
    assert "ResultViolation" in kinds


def test_monitor_silent_without_owners():
    from jcore.classtable import Designations, build_class_table
    from jcore.desugar import parse_and_desugar

    src = """
    class Own1 extends Object { }
    class Rep1 extends Object { }
    class Main extends Object {
      int x;
      unit main() { self.x := 3 }
    }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Own1", "Rep1"))
    _, violations = run_with_monitor(ct, "Main", "main")
    assert not violations


def test_decision_procedure_against_brute_force():
    ct = roles_table()
    rng = random.Random(42)
    agree = 0
    for _ in range(200):
        h = random_heap(ct, rng)
        ours = confine_heap(ct, h)
        brute = brute_force_confining(ct, h)
        assert isinstance(ours, Partition) == (brute is not None), h
        if isinstance(ours, Partition):
            # the canonical forced partition satisfies the clauses with any
            # placement of the flexible reps
            owners = [o for o, _ in ours.islands]
            assignment = {}
            for i, (_, reps) in enumerate(ours.islands):
                for r in reps:
                    assignment[r] = i
            for r in ours.flexible:
                assignment[r] = 0
            if owners:
                assert partition_clauses_hold(ct, h, assignment, owners)
        agree += 1
    assert agree == 200


def test_to_dot_structure(tables):
    ct, h, roots = _obs_state(tables, 2)
    part = confine_heap(ct, h)
    text = to_dot(h, part)
    assert text.count("subgraph cluster_island_") == 2
    assert "cluster_clients" in text
    assert '"Observable@0" -> "Node@0" [label="fst"];' in text
    # deterministic
    assert text == to_dot(h, part)


def test_to_dot_empty():
    text = to_dot({}, Partition([], frozenset(), frozenset()))
    assert "cluster" not in text
    assert text.startswith("digraph heap {")


def test_monitor_calls_checkpoints_subset_of_every(tables):
    ct = tables["obool_bad_v1"]
    _, at_calls = run_with_monitor(ct, "Main", "main", checkpoints="calls")
    _, at_every = run_with_monitor(ct, "Main", "main", checkpoints="every")
    assert {v.kind for v in at_calls} <= {v.kind for v in at_every}
    # the client's rep-holding local is only visible at command checkpoints
    assert "StoreViolation" in {v.kind for v in at_every}


def test_monitor_clean_on_generated_drivers(tables):
    """Accepted tables stay violation-free under the monitor not just on the
    shipped entry points but on generated client call scripts."""
    from jcore.coupling import _exec_step, generate_scripts
    from jcore.interp import Runtime

    for name in ("obool_v1", "observer_v1", "observer_sentinel", "observer_factory", "meyer_sieber_v1"):
        ct = tables[name]
        own = ct.designations.own
        owner_classes = [own] + [
            c for c in sorted(ct.decls) if c != own and ct.subtype_names(c, own)
        ][:1]
        for oc in owner_classes:
            for script in generate_scripts(ct, oc, max_len=3, max_scripts=40):
                monitor = ConfinementMonitor(ct, "every")
                rt = Runtime(ct, hooks=monitor)
                heap, roots = {}, {}
                for st in script:
                    bot, heap = _exec_step(rt, heap, roots, st, 8)
                    if bot is not None:
                        break
                assert not monitor.violations, (
                    name, [s.method or s.op for s in script],
                    [v.render() for v in monitor.violations],
                )


def _random_value(ct, h, t, rng):
    if isinstance(t, A.ClassType):
        candidates = [l for l in sorted(h) if ct.subtype_names(l.class_name, t.name)]
        return rng.choice(candidates) if candidates and rng.random() < 0.65 else None
    return rng.randint(0, 3) if t == A.INT else IT


SITE = SimpleNamespace(span=None, method="m")  # all a call hook reads of its site


def _alloc(ct, h, class_name):
    loc = fresh(class_name, h)
    h[loc] = {f: default_value(t) for f, t in ct.fields(class_name)}
    return loc


def _confined_heap(ct, rng):
    """A random heap, with each edge confine_heap objects to cleared and an
    owner added where reps have none, until it is confined."""
    h = random_heap(ct, rng, max_objects=6)
    while isinstance(v := confine_heap(ct, h), ConfinementViolation):
        if v.kind == "RepWithoutOwner":
            _alloc(ct, h, "Own")
        else:
            src, f, _ = v.witness if len(v.witness) == 3 else rng.choice(v.witness)
            h[src][f] = None
    return h


def _write(monitor, h, loc, f, v):
    monitor.before_write(h, loc, f, v)
    h[loc][f] = v


def _seeded_stores(ct, h, rng):
    """A store each for client, owner and rep code over the locations of `h`:
    `self`, unless the heap has no object of that role, plus a few variables."""
    locs = sorted(h)
    for role, cls in (("client", "Cli"), ("owner", "Own"), ("rep", "Rep")):
        selves = [l for l in locs if ct.role(l.class_name) == role]
        if role != "client" and not selves:
            continue  # owner and rep code always run on a self
        eta = {}
        if selves:
            eta["self"] = rng.choice(selves)
            cls = eta["self"].class_name
        for i in range(rng.randint(1, 3)):
            eta[f"x{i}"] = rng.choice(locs + [None, 1])
        yield cls, eta


def _store_ok_by_islands(ct, cls, eta, part):
    """Store confinement read off a Partition's islands by their index."""
    island = {l: i for i, (o, reps) in enumerate(part.islands) for l in (o, *reps)}
    held = [v for v in eta.values() if isinstance(v, Location)]
    role = ct.role(cls)
    if role == "client":
        return not any(ct.is_rep_class(v.class_name) for v in held)
    if role == "owner":
        mine = island[eta["self"]]
        return all(island.get(v, mine) == mine for v in held if ct.is_rep_class(v.class_name))
    return len({island[v] for v in held if v in island}) <= 1


def test_followed_partition_matches_confine_heap_on_random_walks():
    """Drive a monitor's hooks with random allocations, field writes, swaps
    of a field's values between two objects, and call windows. After every
    step its partition is confine_heap's, the extension verdict of each open
    window is check_hext's on the pre-call partition stacked here, and
    confined_store gives one verdict, the islands' own, on seeded client,
    owner and rep stores whichever of the two partitions it is handed."""
    ct = roles_table()
    classes = sorted(ct.decls)
    rng = random.Random(2024)
    stores = random.Random(7)  # apart from `rng`, so the walk is the same
    moved = 0
    refused = {"client": 0, "owner": 0, "rep": 0}
    for _ in range(3000):
        h = _confined_heap(ct, rng)
        monitor = ConfinementMonitor(ct, "calls")
        pres = []
        for _ in range(rng.randint(4, 16)):
            op = rng.random()
            if op < 0.1:
                monitor.after_alloc(h, _alloc(ct, h, rng.choice(classes)))
            elif op < 0.25:
                pres.append(confine_heap(ct, h))
                monitor.before_call(None, "Cli", {}, h, SITE, False)
            elif op < 0.4 and pres:
                pre, post = pres.pop(), confine_heap(ct, h)
                if isinstance(post, ConfinementViolation):
                    want = post
                else:
                    want = check_hext(ct, pre, h) if isinstance(pre, Partition) else None
                monitor.violations.clear()
                monitor._seen.clear()  # so a verdict seen before is recorded again
                monitor.after_call(None, "Cli", {}, (h, None), SITE, False)
                got = [(v.kind, v.message, v.witness) for v in monitor.violations]
                assert got == ([(want.kind, want.message, want.witness)] if want else []), h
            elif op < 0.7:
                held = [
                    (l, f) for l in sorted(h) for f, v in h[l].items()
                    if isinstance(v, Location) and not ct.is_client_class(l.class_name)
                ]
                if not held:
                    continue
                a, f = rng.choice(held)
                others = [l for l in sorted(h) if l != a and isinstance(h[l].get(f), Location)]
                if not others:
                    continue
                b = rng.choice(others)
                va, vb = h[a][f], h[b][f]
                _write(monitor, h, a, f, vb)
                assert_partition_agrees(ct, h, monitor.partition(h))
                _write(monitor, h, b, f, va)
            elif h:
                # mostly owners and reps: their edges are the ones that tie reps
                inside = [l for l in sorted(h) if not ct.is_client_class(l.class_name)]
                loc = rng.choice(inside if inside and rng.random() < 0.8 else sorted(h))
                f, t = rng.choice(ct.fields(loc.class_name))
                _write(monitor, h, loc, f, _random_value(ct, h, t, rng))
            part = monitor.partition(h)
            assert_partition_agrees(ct, h, part)
            if isinstance(part, ConfinementViolation):
                continue
            spec = confine_heap(ct, h)
            for cls, eta in _seeded_stores(ct, h, stores):
                got = confined_store(ct, cls, eta, part)
                assert confined_store(ct, cls, eta, spec) == got, (cls, eta, h)
                assert (got is None) == _store_ok_by_islands(ct, cls, eta, spec), (cls, eta, h)
                refused[ct.role(cls)] += got is not None
            for pre, mark in zip(pres, monitor._marks):
                if isinstance(pre, Partition):
                    want = check_hext(ct, pre, h)
                    assert monitor._moved(mark, part) == want, h
                    moved += want is not None
    assert moved >= 40, moved
    assert min(refused.values()) >= 500, refused


def test_followed_partition_follows_each_edge_that_comes_and_goes():
    """One table row per kind of edge: from a followed, confined heap with
    two owners of class Own, one of SubOwn (whose `sr` is not a private
    field of Own), reps and a client, the row's writes come and then go in
    reverse. After each write the monitor's partition is confine_heap's
    verdict, or has its forced map, and the verdict after the last coming
    write is the row's."""
    ct = roles_table()
    monitor = ConfinementMonitor(ct, "calls")
    h = {}
    o1, o2, s, r1, r2, r3, c = locs = [
        _alloc(ct, h, n) for n in ("Own", "Own", "SubOwn", "Rep", "Rep", "SubRep", "Cli")
    ]
    for loc in locs:
        monitor.after_alloc(h, loc)
    _write(monitor, h, o1, "pr", r1)
    _write(monitor, h, o2, "pr", r2)
    rows = [
        ([(c, "cc", c)], None),
        ([(c, "co", o1)], None),
        ([(c, "cr", r3)], "ClientToRep"),
        ([(o1, "pc", c)], None),
        ([(o1, "po", o2)], None),
        ([(s, "pr", r3)], None),  # private: r3 joins the island of s
        ([(s, "pr", r1)], "SharedRep"),
        ([(s, "sr", r3)], "NonPrivateOwnerEdge"),
        ([(r1, "rc", c)], None),
        ([(r3, "ro", o2)], None),  # r3 joins the island of o2
        ([(r1, "ro", o1)], None),  # a second forcing edge on one group
        ([(r1, "ro", o2)], "RepEscapesIsland"),
        ([(r1, "rr", r3)], None),  # r3 joins the group of r1
        ([(r1, "rr", r2)], "SharedRep"),
        ([(r3, "ro", o2), (r3, "rr", r1)], "RepEscapesIsland"),
        ([(o1, "pr", None)], None),  # the group's last forcing edge goes: r1 is flexible
        ([(r1, "ro", o1), (o1, "pr", None)], None),  # one of two forcing edges goes
        ([(r1, "rr", r3), (o1, "pr", None)], None),  # r1 and r3 are flexible
    ]
    for writes, want in rows:
        assert not isinstance(monitor.partition(h), ConfinementViolation)  # followed again
        olds = []
        for loc, f, v in writes:
            olds.append((loc, f, h[loc][f]))
            _write(monitor, h, loc, f, v)
            got = monitor.partition(h)
            assert_partition_agrees(ct, h, got)
        assert getattr(got, "kind", None) == want, (writes, got)
        for loc, f, v in reversed(olds):
            _write(monitor, h, loc, f, v)
            assert_partition_agrees(ct, h, monitor.partition(h))
    assert forced_map(confine_heap(ct, h)) == {r1: o1, r2: o2}  # every row undone
    _write(monitor, h, o1, "pr", None)
    assert monitor.partition(h).forced() == {r2: o2}


def test_monitor_partition_agrees_at_every_checkpoint_of_the_corpus(partition_oracles, corpus, tables):
    for name, rec in corpus.items():
        for e in rec.entries:
            for checkpoints in ("every", "calls"):
                run_with_monitor(tables[name], e.entry_class, e.entry_method, checkpoints=checkpoints)
    assert sum(o.checks for o in partition_oracles) > 1000


def test_monitored_run_calls_confine_heap_independently_of_its_length(monkeypatch, corpus):
    spec = confine.confine_heap
    calls = []

    def counted(ct, h):
        calls.append(len(h))
        return spec(ct, h)

    monkeypatch.setattr(confine, "confine_heap", counted)
    per_n = {}
    for n in (50, 200):
        calls.clear()
        res, violations = run_with_monitor(observer_n(corpus, n), "Main", "main")
        assert res.ok and not violations
        per_n[n] = len(calls)
    assert 0 < per_n[200] <= per_n[50], per_n
