from jcore import ast as A
from jcore.ast import ClassType, method_context
from jcore.classtable import Designations, build_class_table
from jcore.desugar import desugar, parse_and_desugar
from jcore.parser import parse
from jcore.safety import safe_command, safe_expr, safe_table
from pretty import program_str


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
