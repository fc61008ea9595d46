import random

from helpers import all_typed_bijections, identity_extension_check

from jcore.coupling import (
    BUILTIN_COUPLINGS, CouplingFailure, ShapeError, Step, check_establishment,
    check_island_shape, generate_scripts, induced_heap_coupling, root_sigma, run_vector,
)
from jcore.coupling import test_simulation as simulate
from jcore.equivalence import Distinguished, canonical_bijection
from jcore.interp import Location, Runtime, run


def _sentinel_islands(observer_pair):
    """The pictured pair: a two-observer list without and with a sentinel.
    Observer locations dangle out of the islands."""
    ct_a, ct_b = observer_pair
    l = Location("Observable", 0)
    ob1, ob2 = Location("AnObserver", 0), Location("AnObserver", 1)
    n1, n3 = Location("Node", 1), Location("Node", 3)
    island_a = {
        l: {"fst": n1},
        n1: {"ob": ob1, "nxt": n3},
        n3: {"ob": ob2, "nxt": None},
    }
    s0, m1, m3 = Location("Node2", 0), Location("Node2", 1), Location("Node2", 3)
    island_b = {
        l: {"snt": s0},
        s0: {"ob": None, "nxt": m1},
        m1: {"ob": ob1, "nxt": m3},
        m3: {"ob": ob2, "nxt": None},
    }
    sigma = {l: l, ob1: ob1, ob2: ob2}
    return ct_a, ct_b, sigma, island_a, island_b


def test_island_shape_sentinel_pair(observer_pair):
    ct_a, ct_b, sigma, ia, ib = _sentinel_islands(observer_pair)
    assert check_island_shape(ct_a, ct_b, sigma, ia, ib) is None
    ok, pairs = BUILTIN_COUPLINGS["observer-sentinel-list"].predicate(ct_a, ct_b, sigma, ia, ib)
    assert ok is True and pairs == []


def test_island_shape_two_owners(observer_pair):
    ct_a, ct_b, sigma, ia, ib = _sentinel_islands(observer_pair)
    extra = Location("Observable", 1)
    ia2 = dict(ia)
    ia2[extra] = {"fst": None}
    err = check_island_shape(ct_a, ct_b, sigma, ia2, ib)
    assert isinstance(err, ShapeError) and err.clause == 1


def test_island_shape_wrong_rep_class(observer_pair):
    ct_a, ct_b, sigma, ia, ib = _sentinel_islands(observer_pair)
    # a Node2 on the A side is not a rep of version A's rep class
    stray = Location("Node2", 9)
    ia2 = dict(ia)
    ia2[stray] = {"ob": None, "nxt": None}
    err = check_island_shape(ct_a, ct_b, sigma, ia2, ib)
    assert isinstance(err, ShapeError) and err.clause == 2


def test_island_shape_nonprivate_field_differs():
    from jcore.classtable import Designations, build_class_table
    from jcore.desugar import parse_and_desugar

    src = """
    class Rep1 extends Object { }
    class OwnSup extends Object { int tag; }
    class Own1 extends OwnSup { Rep1 r; }
    """
    des = Designations("Own1", "Rep1")
    ct = build_class_table(parse_and_desugar(src), des)
    la, lb = Location("Own1", 0), Location("Own1", 1)
    ia = {la: {"tag": 1, "r": None}}
    ib = {lb: {"tag": 2, "r": None}}
    err = check_island_shape(ct, ct, {la: lb}, ia, ib)
    assert isinstance(err, ShapeError) and err.clause == 3
    ib[lb]["tag"] = 1
    assert check_island_shape(ct, ct, {la: lb}, ia, ib) is None


def test_induced_coupling_own_free_self_relation(tables):
    ct = tables["observer_v1"]
    p, q = Location("Main", 0), Location("AnObserver", 0)
    h = {p: {"ob": q}, q: {"count": 2}}
    sigma = {p: p, q: q}
    out = induced_heap_coupling(ct, ct, sigma, h, h, BUILTIN_COUPLINGS["observer-sentinel-list"])
    assert isinstance(out, dict)


def test_induced_coupling_obool(obool_pair):
    ct_a, ct_b = obool_pair
    o = Location("OBool", 0)
    ra, rb = Location("Bool", 0), Location("Bool", 0)
    ha = {o: {"g": ra}, ra: {"f": True}}
    hb = {o: {"g": rb}, rb: {"f": False}}
    bc = BUILTIN_COUPLINGS["obool-negation"]
    out = induced_heap_coupling(ct_a, ct_b, {o: o}, ha, hb, bc)
    assert isinstance(out, dict)
    hb2 = {o: {"g": rb}, rb: {"f": True}}
    out2 = induced_heap_coupling(ct_a, ct_b, {o: o}, ha, hb2, bc)
    assert isinstance(out2, CouplingFailure)
    assert "complementary" in out2.message


def test_establishment(obool_pair, meyer_pair, observer_pair):
    for pair, own in ((obool_pair, "OBool"), (meyer_pair, "A"), (observer_pair, "Observable")):
        bcname = {
            "OBool": "obool-negation", "A": "meyer-sieber-even", "Observable": "observer-sentinel-list",
        }[own]
        ok, msg = check_establishment(pair[0], pair[1], BUILTIN_COUPLINGS[bcname], own)
        assert ok, msg


def test_simulation_passes_for_coupled_pairs(obool_pair, meyer_pair, observer_pair):
    cases = [
        (obool_pair, "obool-negation"),
        (meyer_pair, "meyer-sieber-even"),
        (observer_pair, "observer-sentinel-list"),
    ]
    for (ct_a, ct_b), bcname in cases:
        report = simulate(ct_a, ct_b, BUILTIN_COUPLINGS[bcname], fuels=(1, 2, 4, 8), max_scripts=60)
        assert report.ok, (bcname, [v.message for v in report.failures()[:3]])
        cov = report.method_coverage()
        public = [
            m for m in ct_a.method_names(ct_a.designations.own)
            if not ct_a.mscope(m, ct_a.designations.own)
        ]
        for m in public:
            assert m in cov and cov[m][0] > 0, (bcname, m)


def test_simulation_bad_leak_counterexample(obool_bad_pair):
    ct_a, ct_b = obool_bad_pair
    report = simulate(ct_a, ct_b, BUILTIN_COUPLINGS["obool-negation"], fuels=(2,), max_scripts=120)
    fails = report.failures()
    assert fails
    assert any(
        any(s.op == "call" and s.method == "set" for s in v.script) for v in fails
    ), "the counterexample should exploit the leaked cell"


def test_prot_methods_probed_and_preserved():
    from conftest import pair_tables

    ct_a, ct_b = pair_tables(
        "observer_factory", "observer_factory_sentinel", "Observable", "Node4", "Node4"
    )
    # the factory pair is a plain-list vs sentinel-list correspondence over
    # the same rep class; the sentinel coupling applies verbatim
    bc = BUILTIN_COUPLINGS["observer-sentinel-list"]
    report = simulate(ct_a, ct_b, bc, fuels=(2, 4), max_scripts=40)
    assert report.ok, [v.message for v in report.failures()[:3]]
    cov = report.method_coverage()
    # subclass-visible module methods are probed directly
    assert "getFirst" in cov and cov["getFirst"][0] > 0
    assert "makeNode" in cov and cov["makeNode"][0] > 0
    assert "notifications" in cov and cov["notifications"][0] > 0


def test_script_cap_bounds_the_enumerated_scripts():
    from conftest import pair_tables

    ct = pair_tables("observer_factory", "observer_factory_sentinel", "Observable", "Node4", "Node4")[0]

    def split(cap):
        scripts = generate_scripts(ct, "Observable", max_len=4, max_scripts=cap)
        return [s for s in scripts if not any(st.prot for st in s)], [s for s in scripts if any(st.prot for st in s)]

    # at cap 0 only the direct probes after the prelude remain
    enumerated, probes = split(0)
    assert enumerated == [] and probes
    assert all(s[-1].prot and all(st.op == "new" for st in s[:-1]) for s in probes)
    full = split(120)[0]
    assert len(full) == 120
    for cap in range(1, 121):
        assert split(cap)[0] == full[:cap], cap


def test_known_limit_fixture(known_limit_pair):
    ct_a, ct_b = known_limit_pair
    bc = BUILTIN_COUPLINGS["observer-node-list"]

    def script(n_adds):
        steps = [Step("new", "o", "Observable"), Step("new", "c0", "AnObserver")]
        steps += [Step("call", "o", "add", (("root", "c0"),), None)] * n_adds
        steps.append(Step("call", "o", "notifyAll", (), None))
        return tuple(steps)

    # at approximant i, a list longer than i distinguishes loop from recursion
    r = run_vector(ct_a, ct_b, bc, script(3), 2)
    assert r.status == "fail" and "fuel-exhausted" in r.message
    r = run_vector(ct_a, ct_b, bc, script(5), 4)
    assert r.status == "fail" and "fuel-exhausted" in r.message
    # short lists and converged fuel agree
    assert run_vector(ct_a, ct_b, bc, script(1), 2).status == "pass"
    assert run_vector(ct_a, ct_b, bc, script(3), 8).status == "pass"
    assert run_vector(ct_a, ct_b, bc, script(5), 8).status == "pass"


def test_sigma_search_agrees_with_brute_force(obool_pair):
    """Relatedness decided by the rooted search must agree with enumerating
    every typed-bijection extension, on small states."""
    ct_a, ct_b = obool_pair
    bc = BUILTIN_COUPLINGS["obool-negation"]
    rng = random.Random(5)
    scripts = []
    base = [Step("new", "o", "OBool"), Step("call", "o", "init", (), None)]
    scripts.append(tuple(base))
    scripts.append(tuple(base + [Step("call", "o", "setg", (("lit", True),), None)]))
    scripts.append(tuple(base + [Step("call", "o", "getg", (), "w0")]))
    checked = 0
    for script in scripts:
        for fuel in (2, 4):
            rt_a, rt_b = Runtime(ct_a), Runtime(ct_b)
            ha = hb = {}
            ra, rb = {}, {}
            from jcore.coupling import _exec_step

            for st in script:
                _, ha = _exec_step(rt_a, ha, ra, st, fuel)
                _, hb = _exec_step(rt_b, hb, rb, st, fuel)
            sigma = root_sigma(ct_a, ct_b, ra, rb, ha, hb)
            ours = isinstance(sigma, dict) and isinstance(
                induced_heap_coupling(ct_a, ct_b, sigma, ha, hb, bc), dict
            )
            # brute force: every typed bijection over non-rep locations,
            # respecting root name alignment on non-rep roots
            nonrep_a = [l for l in ha if not ct_a.is_rep_class(l.class_name)]
            nonrep_b = [l for l in hb if not ct_b.is_rep_class(l.class_name)]
            forced = {}
            for x in ra:
                va, vb = ra[x], rb[x]
                if isinstance(va, Location) and not ct_a.is_rep_class(va.class_name):
                    forced[va] = vb
            brute = False
            for cand in all_typed_bijections(nonrep_a, nonrep_b, forced):
                full = dict(cand)
                for x in ra:
                    va, vb = ra[x], rb[x]
                    if isinstance(va, Location) and ct_a.is_rep_class(va.class_name):
                        full[va] = vb
                if isinstance(induced_heap_coupling(ct_a, ct_b, full, ha, hb, bc), dict):
                    brute = True
                    break
            assert ours == brute, (script, fuel)
            checked += 1
    assert checked == 6


def test_identity_extension_check(obool_pair):
    ct_a, ct_b = obool_pair
    ra = run(ct_a, "Main", "main")
    rb = run(ct_b, "Main", "main")
    status, out = identity_extension_check(ct_a, ct_b, {}, ra.outcome, rb.outcome)
    assert status == "ok"
    # degenerate self-relation: sigma restriction equals the canonical bijection
    status2, out2 = identity_extension_check(ct_a, ct_a, dict(out), ra.outcome, ra.outcome)
    assert status2 == "ok"
    assert all(a == b for a, b in out2.items())


def test_identity_extension_precondition():
    from jcore.classtable import Designations, build_class_table
    from jcore.desugar import parse_and_desugar

    src = """
    class Rep1 extends Object { }
    class Own1 extends Object { }
    class Main extends Object {
      Own1 keep;
      unit main() { self.keep := new Own1 }
    }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Own1", "Rep1"))
    res = run(ct, "Main", "main")
    status, msg = identity_extension_check(ct, ct, {}, res.outcome, res.outcome)
    assert status == "precondition"


def test_identity_reduction_on_obool(obool_pair):
    """With the shared parametric allocator, the bijection the search builds
    for the owned-cell pair is the identity on every non-rep location: the
    bijective checks reduce to the equality-form relations."""
    ct_a, ct_b = obool_pair
    from jcore.coupling import _exec_step

    script = (
        Step("new", "o", "OBool"),
        Step("call", "o", "init", (), None),
        Step("call", "o", "setg", (("lit", False),), None),
    )
    rt_a, rt_b = Runtime(ct_a), Runtime(ct_b)
    ha = hb = {}
    ra, rb = {}, {}
    for st in script:
        _, ha = _exec_step(rt_a, ha, ra, st, 4)
        _, hb = _exec_step(rt_b, hb, rb, st, 4)
    sigma = root_sigma(ct_a, ct_b, ra, rb, ha, hb)
    assert isinstance(sigma, dict)
    for a, b in sigma.items():
        if not ct_a.is_rep_class(a.class_name):
            assert a == b


def test_root_sigma_pairs_reps_without_entering_them(obool_pair):
    """root_sigma pairs rep-typed roots but never follows a rep's fields, so
    a difference inside a rep is left to the coupling; the canonical
    bijection follows every field and sees it."""
    ct_a, ct_b = obool_pair
    o, r = Location("OBool", 0), Location("Bool", 0)
    ha = {o: {"g": r}, r: {"f": True}}
    hb = {o: {"g": r}, r: {"f": False}}
    roots = {"o": o, "w": r}
    assert root_sigma(ct_a, ct_b, roots, roots, ha, hb) == {o: o, r: r}
    out = canonical_bijection(ct_a, (ha, roots), (hb, roots))
    assert isinstance(out, Distinguished) and out.path == "w.f"


def test_root_sigma_rep_pairing_is_injective(obool_pair):
    """Two roots sharing one rep on side A cannot pair with two distinct reps
    on side B."""
    ct_a, ct_b = obool_pair
    r0, r1 = Location("Bool", 0), Location("Bool", 1)
    ha = {r0: {"f": True}}
    hb = {r0: {"f": True}, r1: {"f": True}}
    out = root_sigma(ct_a, ct_b, {"x": r0, "y": r0}, {"x": r0, "y": r1}, ha, hb)
    assert isinstance(out, CouplingFailure) and out.where == "y"


def test_builtin_predicates_total_on_mismatched_shapes(observer_pair):
    """A coupling applied to islands it does not target must fail cleanly,
    never raise."""
    ct_a, ct_b, sigma, ia, ib = _sentinel_islands(observer_pair)
    for name, bc in BUILTIN_COUPLINGS.items():
        out = induced_heap_coupling(
            ct_a, ct_b, sigma,
            {l: dict(s) for l, s in ia.items()},
            {l: dict(s) for l, s in ib.items()},
            bc,
        )
        assert isinstance(out, (dict, CouplingFailure)), name
