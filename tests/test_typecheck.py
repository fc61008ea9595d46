import pytest

from jcore import ast as A
from jcore.ast import BOOL, INT, UNIT, ClassType, NullType
from jcore.classtable import Designations, build_class_table
from jcore.desugar import parse_and_desugar
from jcore.typecheck import TypeCheckError, check_command, check_table, type_of_expr


def _gamma(ct, cname, **vars):
    g = {"self": ClassType(cname)}
    g.update(vars)
    return g


def test_field_access_in_owner(tables):
    ct = tables["observer_v1"]
    g = _gamma(ct, "Observable")
    t = type_of_expr(ct, g, A.FieldAccess(A.Var("self"), "fst"))
    assert t == ClassType("Node")


def test_null_types_as_any_class(tables):
    ct = tables["observer_v1"]
    g = _gamma(ct, "Observable")
    assert isinstance(type_of_expr(ct, g, A.NullLit()), NullType)
    # usable wherever a class is expected
    check_command(ct, g, A.FieldAssign(A.Var("self"), "fst", A.NullLit()))


def test_private_visibility_rejects_foreign_field(tables):
    ct = tables["observer_v1"]
    g = _gamma(ct, "Main", x=ClassType("Observable"))
    with pytest.raises(TypeCheckError) as exc:
        type_of_expr(ct, g, A.FieldAccess(A.Var("x"), "fst"))
    assert exc.value.rule == "PrivateFieldAccess"


def test_private_visibility_requires_exact_receiver_type(tables):
    ct = tables["observer_sub"]
    # NodeAcc code cannot read Node4's field directly, even on self
    g = _gamma(ct, "NodeAcc")
    with pytest.raises(TypeCheckError) as exc:
        type_of_expr(ct, g, A.FieldAccess(A.Var("self"), "ob"))
    assert exc.value.rule == "PrivateFieldAccess"


@pytest.mark.parametrize("node, message", [
    (A.FieldAccess(A.Var("x"), "fst"),
     "field fst may only be accessed on expressions of type Main, got Observable"),
    (A.FieldAssign(A.Var("x"), "fst", A.NullLit()),
     "field fst may only be updated on expressions of type Main, got Observable"),
    (A.FieldAccess(A.Var("self"), "nope"), "nope is not a field declared in Main"),
    (A.FieldAssign(A.Var("self"), "nope", A.NullLit()), "nope is not a field declared in Main"),
    # the receiver is checked before the field, the field before the value
    (A.FieldAssign(A.Var("x"), "nope", A.Var("y")),
     "field nope may only be updated on expressions of type Main, got Observable"),
    (A.FieldAssign(A.Var("self"), "nope", A.Var("y")), "nope is not a field declared in Main"),
], ids=["read-receiver", "update-receiver", "read-field", "update-field", "receiver-first", "field-first"])
def test_private_field_diagnostics(tables, node, message):
    ct = tables["observer_v1"]
    g = _gamma(ct, "Main", x=ClassType("Observable"))
    with pytest.raises(TypeCheckError) as exc:
        if isinstance(node, A.FieldAccess):
            type_of_expr(ct, g, node)
        else:
            check_command(ct, g, node)
    assert (exc.value.rule, exc.value.message) == ("PrivateFieldAccess", message)


def test_self_not_assignable(tables):
    ct = tables["observer_v1"]
    g = _gamma(ct, "Main")
    with pytest.raises(TypeCheckError) as exc:
        check_command(ct, g, A.Assign("self", A.NullLit()))
    assert exc.value.rule == "SelfAssignment"


def test_add_body_checks(tables):
    ct = tables["observer_v1"]
    add = ct.decls["Observable"].method("add")
    g = {"ob": ClassType("Observer"), "self": ClassType("Observable"), "result": UNIT}
    check_command(ct, g, add.body)


def test_module_scope_violation():
    src = """
    class Node4 extends Object { }
    class Observable extends Object {
      Node4 fst;
      module Node4 getFirst() { result := self.fst }
      unit add() { skip }
    }
    class Client extends Object {
      unit poke(Observable o) { Node4 n := o.getFirst(); skip }
    }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Observable", "Node4"))
    report = check_table(ct)
    assert {i.rule for i in report.issues} == {"ModuleScopeViolation"}


def test_module_scope_allowed_inside_module(tables):
    assert check_table(tables["observer_factory"]).ok


def test_whole_corpus_checks(tables):
    for name, ct in tables.items():
        assert check_table(ct).ok, name


def test_invalid_override_parameter_type():
    src = """
    class A extends Object { unit m(bool x) { skip } }
    class B extends A { unit m(int x) { skip } }
    """
    ct = build_class_table(parse_and_desugar(src))
    assert {i.rule for i in check_table(ct).issues} == {"InvalidOverride"}


def test_invalid_override_parameter_name():
    src = """
    class A extends Object { unit m(bool x) { skip } }
    class B extends A { unit m(bool y) { skip } }
    """
    ct = build_class_table(parse_and_desugar(src))
    assert {i.rule for i in check_table(ct).issues} == {"InvalidOverride"}


def test_constructor_may_not_call():
    src = """
    class A extends Object {
      int g;
      con { self.poke() }
      unit poke() { skip }
    }
    """
    ct = build_class_table(parse_and_desugar(src))
    assert {i.rule for i in check_table(ct).issues} == {"CallInConstructor"}


def test_new_object_rejected():
    src = "class A extends Object { unit m() { Object x := new Object; skip } }"
    ct = build_class_table(parse_and_desugar(src))
    assert {i.rule for i in check_table(ct).issues} == {"CannotInstantiate"}


def test_equality_allows_unrelated_types(tables):
    ct = tables["observer_v1"]
    g = _gamma(ct, "Main", x=ClassType("Observable"), b=BOOL)
    assert type_of_expr(ct, g, A.Eq(A.Var("x"), A.Var("b"))) == BOOL


def test_int_operators(tables):
    ct = tables["observer_v1"]
    g = _gamma(ct, "Main", i=INT, j=INT)
    assert type_of_expr(ct, g, A.IntOp("+", A.Var("i"), A.Var("j"))) == INT
    assert type_of_expr(ct, g, A.IntOp("<", A.Var("i"), A.Var("j"))) == BOOL
    with pytest.raises(TypeCheckError):
        type_of_expr(ct, g, A.IntOp("+", A.Var("i"), A.BoolLit(True)))


def test_cast_requires_subclass_target(tables):
    ct = tables["observer_sub"]
    g = _gamma(ct, "Main", n=ClassType("Node4"))
    assert type_of_expr(ct, g, A.Cast("NodeAcc", A.Var("n"))) == ClassType("NodeAcc")
    with pytest.raises(TypeCheckError) as exc:
        type_of_expr(ct, g, A.Cast("Observer", A.Var("n")))
    assert exc.value.rule == "BadCastTarget"


def test_while_guard_must_be_bool(tables):
    ct = tables["observer_v1"]
    g = _gamma(ct, "Main", i=INT)
    with pytest.raises(TypeCheckError):
        check_command(ct, g, A.While(A.Var("i"), A.Skip()))


def test_first_violation_in_preorder_is_reported():
    # the guard is checked before the branch it guards
    src = "class K extends Object { int n; unit m() { if 1 then self.n := true else skip fi } }"
    report = check_table(build_class_table(parse_and_desugar(src)))
    assert [(i.rule, i.message) for i in report.issues] == [
        ("TypeMismatch", "condition must be bool, got int")
    ]


def test_synthesis_is_deterministic(tables):
    ct = tables["observer_sub"]
    g = _gamma(ct, "NodeAcc", o=ClassType("Observer"))
    e = A.Eq(A.Var("o"), A.NullLit())
    assert type_of_expr(ct, g, e) == type_of_expr(ct, g, e) == BOOL


def test_module_scope_violation_in_factory_corpus(corpus):
    from jcore.corpus import corpus_record

    src = corpus_record("observer_factory").source() + """
    class Caller extends Object {
      unit poke(ObservableAcc o) { Node4 n := o.makeNode(); skip }
    }
    """
    ct = build_class_table(parse_and_desugar(src), Designations("Observable", "Node4"))
    report = check_table(ct)
    assert {i.rule for i in report.issues} == {"ModuleScopeViolation"}
    assert any(i.class_name == "Caller" for i in report.issues)
