import pytest
from helpers import incomparable, method_depth

from jcore import ast as A
from jcore.ast import BOOL, ClassType
from jcore.classtable import Designations, WellFormednessError, build_class_table
from jcore.desugar import parse_and_desugar


def _cls(name, sup, fields=(), ctor=None, methods=()):
    return A.ClassDecl(name, sup, tuple(fields), ctor or A.Skip(), tuple(methods))


def test_empty_table_is_valid():
    ct = build_class_table([])
    assert ct.subtype_names("Object", "Object")
    assert ct.fields("Object") == ()


def test_cyclic_constructor_dependence_rejected():
    # constructing a C entails constructing a C again through B's constructor
    b = _cls("B", "Object", [("f", ClassType("B"))],
             ctor=A.LocalBlock(ClassType("C"), "x", A.NullLit(), A.NewAssign("x", "C")))
    c = _cls("C", "B")
    with pytest.raises(WellFormednessError) as exc:
        build_class_table([b, c])
    assert exc.value.kind == "CyclicConstructorDependence"


def test_noncyclic_constructor_dependence_accepted():
    b = _cls("B", "Object", [("f", ClassType("C"))],
             ctor=A.LocalBlock(ClassType("C"), "x", A.NullLit(), A.NewAssign("x", "C")))
    c = _cls("C", "Object")
    ct = build_class_table([b, c])
    assert ct.constructor_deps["B"] == {"C"}


def test_cyclic_inheritance_rejected():
    a = _cls("A", "B")
    b = _cls("B", "A")
    with pytest.raises(WellFormednessError) as exc:
        build_class_table([a, b])
    assert exc.value.kind == "CyclicInheritance"


def test_duplicate_members_rejected():
    dup_field = _cls("A", "Object", [("f", BOOL), ("f", BOOL)])
    with pytest.raises(WellFormednessError):
        build_class_table([dup_field])
    shadowing = [
        _cls("A", "Object", [("f", BOOL)]),
        _cls("B", "A", [("f", BOOL)]),
    ]
    with pytest.raises(WellFormednessError):
        build_class_table(shadowing)


def test_undeclared_class_rejected():
    a = _cls("A", "Object", [("f", ClassType("Missing"))])
    with pytest.raises(WellFormednessError) as exc:
        build_class_table([a])
    assert exc.value.kind == "UndeclaredClass"


def test_subtype_basics(tables):
    ct = tables["observer_sub"]
    assert ct.subtype(BOOL, BOOL)
    assert ct.subtype_names("NodeAcc", "Node4")
    assert not ct.subtype_names("Node4", "NodeAcc")
    ct2 = tables["observer_v1"]
    assert not ct2.subtype_names("Observable", "Node")


def test_incomparable(tables):
    ct = tables["observer_v1"]
    assert ct.incomparable_names("Observable", "Node")
    assert not ct.incomparable_names("Observable", "Observable")
    assert incomparable(ct, BOOL, ClassType("Node"))
    assert incomparable(ct, BOOL, A.INT)


def test_resolve_method(tables):
    ct = tables["observer_sub"]
    assert ct.resolve_method("getOb", "NodeAcc")[0] == "Node4"
    assert ct.resolve_method("notifyAll", "NodeAcc")[0] == "NodeAcc"
    assert ct.resolve_method("nothing", "NodeAcc") is None
    assert ct.mtype("nothing", "NodeAcc") is None


def test_method_depth(tables):
    ct = tables["observer_sub"]
    assert method_depth(ct, "notifyAll", "NodeAcc") == 1
    assert method_depth(ct, "notifyAll", "Node4") == 0
    assert method_depth(ct, "add", "ObservableAcc") == 2  # ObservableSup -> Observable -> ObservableAcc
    assert method_depth(ct, "notifications", "NodeAcc") == 0


def test_depth_zero_means_declared(tables):
    for ct in tables.values():
        for cname in ct.decls:
            for m in ct.method_names(cname):
                if method_depth(ct, m, cname) == 0:
                    assert ct.decls[cname].method(m) is not None


def test_fields_partition(tables):
    for ct in tables.values():
        for cname in ct.decls:
            inherited = ct.fields(ct.super_of(cname))
            dfields = ct.dfields(cname)
            assert ct.fields(cname) == inherited + dfields
            names = [f for f, _ in ct.fields(cname)]
            assert len(names) == len(set(names))


def test_subtype_is_tree_partial_order(tables):
    for ct in tables.values():
        names = list(ct.decls) + ["Object"]
        for c in names:
            assert ct.subtype_names(c, c)
            for d in names:
                if ct.subtype_names(c, d) and ct.subtype_names(d, c):
                    assert c == d
                for e in names:
                    if ct.subtype_names(c, d) and ct.subtype_names(d, e):
                        assert ct.subtype_names(c, e)
                # tree: two ancestors of the same class are comparable
                if ct.subtype_names(c, d) and ct.subtype_names(c, e):
                    assert ct.subtype_names(d, e) or ct.subtype_names(e, d)


def test_pars_uniform_along_chain(tables):
    for ct in tables.values():
        for cname in ct.decls:
            for m in ct.method_names(cname):
                decl_class, _ = ct.resolve_method(m, cname)
                assert ct.pars(m, cname) == ct.pars(m, decl_class)


def test_prot_methods_factory(tables):
    ct = tables["observer_factory"]
    assert {m for m, _ in ct.prot_methods()} == {"getFirst", "makeNode"}


def test_prot_methods_sub(tables):
    ct = tables["observer_sub"]
    assert {m for m, _ in ct.prot_methods()} == {"getFirst", "addn"}


def test_prot_methods_empty_without_subclasses(tables):
    assert tables["obool_v1"].prot_methods() == set()
    assert tables["observer_v1"].prot_methods() == set()


def test_mscope_requires_designations():
    src = """
    class Own1 extends Object { module unit m() { skip } }
    """
    decls = parse_and_desugar(src)
    with pytest.raises(WellFormednessError) as exc:
        build_class_table(decls)
    assert exc.value.kind == "BadModuleScope"


def test_mscope_outside_module_rejected():
    src = """
    class Own1 extends Object { unit m() { skip } }
    class Rep1 extends Object { }
    class C extends Object { module unit helper() { skip } }
    """
    decls = parse_and_desugar(src)
    with pytest.raises(WellFormednessError) as exc:
        build_class_table(decls, Designations("Own1", "Rep1"))
    assert exc.value.kind == "BadModuleScope"


def test_mscope_override_must_agree():
    src = """
    class Own1 extends Object { module unit m() { skip } }
    class SubOwn extends Own1 { unit m() { skip } }
    class Rep1 extends Object { }
    """
    decls = parse_and_desugar(src)
    with pytest.raises(WellFormednessError) as exc:
        build_class_table(decls, Designations("Own1", "Rep1"))
    assert exc.value.kind == "BadModuleScope"


def test_mscope_name_above_module_rejected():
    src = """
    class Base extends Object { unit m() { skip } }
    class Own1 extends Base { module unit m() { skip } }
    class Rep1 extends Object { }
    """
    decls = parse_and_desugar(src)
    with pytest.raises(WellFormednessError):
        build_class_table(decls, Designations("Own1", "Rep1"))


def test_designations_must_be_incomparable():
    src = """
    class Own1 extends Object { }
    class Rep1 extends Own1 { }
    """
    decls = parse_and_desugar(src)
    with pytest.raises(WellFormednessError):
        build_class_table(decls, Designations("Own1", "Rep1"))
