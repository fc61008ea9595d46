import hashlib
import os

from jcore import ast as A
from jcore.ast import ClassType, method_context
from jcore.classtable import Designations, WellFormednessError, build_class_table
from jcore.corpus import load_corpus
from jcore.desugar import desugar, parse_and_desugar
from jcore.parser import parse
from jcore.safety import safe_command, safe_expr, safe_table
from pretty import program_str
from test_roundtrip_fuzz import _bench_padded_sources


def test_owner_self_access_ok(tables):
    ct = tables["observer_v1"]
    g = {"self": ClassType("Observable")}
    assert safe_expr(ct, g, A.FieldAccess(A.Var("self"), "fst")) == []


def test_owner_non_self_rep_access_flagged(tables):
    ct = tables["observer_v1"]
    g = {"self": ClassType("Observable"), "o": ClassType("Observable")}
    diags = safe_expr(ct, g, A.FieldAccess(A.Var("o"), "fst"))
    assert [d.rule for d in diags] == ["NonSelfPrivateAccess"]


def test_client_expressions_unrestricted(tables):
    ct = tables["observer_v1"]
    g = {"self": ClassType("Main"), "n": A.INT}
    e = A.Eq(A.FieldAccess(A.Var("self"), "ob"), A.NullLit())
    assert safe_expr(ct, g, e) == []


def test_subowner_rep_field_access_flagged():
    src = """
    class Node4 extends Object { }
    class Observable extends Object {
      Node4 fst;
      unit add() { skip }
    }
    class ObservableAcc extends Observable {
      Node4 mine;
      unit peek() { Node4 n := self.mine; skip }
    }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Observable", "Node4"))
    report = safe_table(ct)
    assert "NonSelfPrivateAccess" in report.rules()


def test_new_rep_in_client(tables):
    ct = tables["observer_v1"]
    g = {"self": ClassType("Main"), "n": ClassType("Node")}
    diags = safe_command(ct, g, A.NewAssign("n", "Node"))
    assert [d.rule for d in diags] == ["NewRepInClient"]


def test_new_owner_in_rep(tables):
    ct = tables["observer_v1"]
    g = {"self": ClassType("Node"), "x": ClassType("Observable")}
    diags = safe_command(ct, g, A.NewAssign("x", "Observable"))
    assert [d.rule for d in diags] == ["NewOwnerInRep"]


def test_subowner_may_construct_reps(tables):
    ct = tables["observer_sub"]
    add = ct.decls["ObservableAcc"].method("add")
    g = method_context("ObservableAcc", add)
    assert safe_command(ct, g, add.body) == []


def test_owner_passing_rep_to_client_method():
    src = """
    class Observer extends Object { unit leak(Node n) { skip } }
    class Node extends Object { }
    class Observable extends Object {
      Node fst;
      unit bad(Observer ob) { ob.leak(self.fst) }
    }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Observable", "Node"))
    report = safe_table(ct)
    assert "RepLeakViaCall" in report.rules()


def test_owner_passing_rep_to_foreign_owner():
    src = """
    class Node extends Object { }
    class Observable extends Object {
      Node fst;
      unit give(Observable other, Node n) { skip }
      unit bad(Observable other) { other.give(other, self.fst) }
      unit fine(Observable other) { self.give(other, self.fst) }
    }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Observable", "Node"))
    report = safe_table(ct)
    assert [d.rule for d in report.diagnostics] == ["RepToNonSelfOwner"]
    assert report.diagnostics[0].method_name == "bad"


def test_owner_arg_to_rep_method():
    src = """
    class Node extends Object {
      unit keep(Observable o) { skip }
    }
    class Observable extends Object {
      Node fst;
      unit bad(Observable other) { self.fst.keep(other) }
      unit fine() { self.fst.keep(self) }
    }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Observable", "Node"))
    report = safe_table(ct)
    assert [d.rule for d in report.diagnostics] == ["OwnerArgToRep"]
    assert report.diagnostics[0].method_name == "bad"


def test_bad_method_rejected_for_both_return_types(tables):
    for name in ("obool_bad_v1", "obool_bad_object"):
        report = safe_table(tables[name])
        assert report.rules() == {"OwnerPublicReturnsRep"}, name


def test_module_scoped_return_exempt(tables):
    # getFirst returns the rep class but is module-scoped
    assert safe_table(tables["observer_factory"]).ok


def test_owner_inherits_rep_params():
    src = """
    class Node extends Object { }
    class Base extends Object { unit install(Node n) { skip } }
    class Observable extends Base {
      Node fst;
    }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Observable", "Node"))
    assert "OwnerInheritsRepParams" in safe_table(ct).rules()


def test_rep_inherits_foreign():
    src = """
    class Base extends Object { unit poke() { skip } }
    class Node extends Base { }
    class Observable extends Object { Node fst; }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Observable", "Node"))
    assert "RepInheritsForeign" in safe_table(ct).rules()


def test_corpus_acceptance(corpus, tables):
    for name, rec in corpus.items():
        report = safe_table(tables[name])
        assert report.rules() == set(rec.analyze), (name, sorted(report.rules()))


def test_all_diagnostics_reported_not_just_first():
    src = """
    class Node extends Object { }
    class Observable extends Object { Node fst; }
    class Main extends Object {
      unit main() { Node a := new Node; Node b := new Node; skip }
    }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Observable", "Node"))
    report = safe_table(ct)
    assert [d.rule for d in report.diagnostics] == ["NewRepInClient", "NewRepInClient"]


def test_analysis_deterministic(tables):
    for name in ("obool_bad_v1", "observer_factory"):
        r1 = safe_table(tables[name])
        r2 = safe_table(tables[name])
        assert [d.rule for d in r1.diagnostics] == [d.rule for d in r2.diagnostics]


def test_desugaring_stability(corpus, tables):
    """Accepted tables stay accepted after a print/reparse/desugar round."""
    for name, rec in corpus.items():
        if rec.analyze:
            continue
        ct = tables[name]
        printed = program_str([ct.decls[c] for c in sorted(ct.decls)])
        ct2 = build_class_table(desugar(parse(printed)), rec.designations())
        assert safe_table(ct2).ok, name


# ---------------------------------------------------------------------------
# Pinned verdicts: every safety diagnostic of a fixed set of tables


FIFO_DIR = os.path.join(os.path.dirname(__file__), "fifo")

# safe_table reports these two on none of the corpus variants; a client
# calling a module-scoped method is ill-typed too, since `check` rejects the
# same call
EXTRA_CASES = (
    ("Own", "Rep", """
    class Rep extends Object { }
    class Own extends Object { Rep r; module unit hid() { skip } }
    class Main extends Object { unit main(Own o) { o.hid() } }
    """),
    ("Own", "Rep", """
    class Rep extends Object { unit keep(Own o, Object x) { skip } }
    class Own extends Object {
      Rep r;
      unit give(Own other) { self.r.keep(other, other); self.r.keep(self, self) }
    }
    """),
)


def _safety_cases():
    """(core declarations, designations) pairs: each corpus program under its
    own designations and under every ordered pair of distinct classes it
    declares, the seed-1 benchmark sources, the FIFO versions and
    `EXTRA_CASES`."""
    records = load_corpus()
    cases = []
    for r in records:
        decls = parse_and_desugar(r.source())
        names = [d.name for d in decls]
        cases.append((decls, r.designations()))
        cases += [(decls, Designations(own, rep)) for own in names for rep in names if own != rep]
    cases += [(parse_and_desugar(src), r.designations()) for src, r in zip(_bench_padded_sources(1), records)]
    for file in sorted(os.listdir(FIFO_DIR)):
        if file.endswith(".jcore"):
            with open(os.path.join(FIFO_DIR, file), encoding="utf-8") as f:
                cases.append((parse_and_desugar(f.read()), Designations("FIFO", "Node", "Node2")))
    cases += [(parse_and_desugar(src), Designations(own, rep)) for own, rep, src in EXTRA_CASES]
    return cases


def _diag_record(d):
    return repr((d.rule, d.message, str(d.span), d.class_name, d.method_name)).encode()


def test_safety_verdicts_match_their_pinned_digest():
    """`safe_table` of every case (or its `WellFormednessError`), then
    `safe_command` of every method body and constructor of each table that
    builds, in the order returned: one sha256."""
    digest, rules, cases = hashlib.sha256(), set(), _safety_cases()
    for decls, des in cases:
        try:
            ct = build_class_table(decls, des)
        except WellFormednessError as exc:
            digest.update(str(exc).encode())
            continue
        report = safe_table(ct)
        digest.update(b"table")
        for d in report.diagnostics:
            digest.update(_diag_record(d))
            rules.add(d.rule)
        for cname in sorted(ct.decls):
            decl = ct.decls[cname]
            bodies = [(method_context(cname, m), m.body) for m in decl.methods]
            for gamma, body in bodies + [({"self": ClassType(cname)}, decl.constructor)]:
                digest.update(b"body")
                for d in safe_command(ct, gamma, body):
                    digest.update(_diag_record(d))
    assert len(cases) == 845
    assert rules == {
        "NewRepInClient", "NewOwnerInRep", "NonSelfPrivateAccess", "NonSelfPrivateUpdate",
        "RepLeakViaCall", "RepToNonSelfOwner", "OwnerArgToRep", "ModuleScopeViolation",
        "OwnerPublicReturnsRep", "OwnerInheritsRepParams", "RepInheritsForeign",
    }
    assert digest.hexdigest() == "c5d0d00243b7bd34a379dfde88861a3407d0b543b9289c02ab0e2c65df947e4b"


def test_a_local_named_self_leaves_the_body_its_class_code():
    # ill-typed (`check` rejects SelfAssignment), yet the body stays client code
    src = """
    class Rep extends Object { }
    class Own extends Object { Rep r; }
    class Main extends Object { unit main() { Own self := new Own; Rep x := new Rep; skip } }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Own", "Rep"))
    assert [(d.rule, d.class_name) for d in safe_table(ct).diagnostics] == [("NewRepInClient", "Main")]
