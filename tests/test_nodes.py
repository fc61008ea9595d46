"""The contract of the slotted syntax nodes: every node class of `jcore.ast`
and every slotted surface class of `jcore.parser` behaves as the plain frozen
dataclass it was, without a `__dict__`. The frozen records made by
`ast.record` behave as their frozen dataclasses did, and every class made by
`record` or `node` shares one set of methods from `ast.Record`."""

import copy
import dataclasses
import inspect
import pickle
import sys
import weakref

import pytest

from jcore import ast as A
from jcore import parser as P
from jcore.classtable import Designations
from jcore.confine import ConfinementViolation, Partition
from jcore.corpus import CorpusRecord, EntryExpectation
from jcore.coupling import BasicCoupling, CouplingFailure, CouplingReport, ShapeError, Step, VectorResult, _Prefix
from jcore.equivalence import Distinguished, EquivVerdict, Manifest
from jcore.interp import Bottom, Location, RunResult
from jcore.safety import SafetyReport
from jcore.typecheck import Diagnostic, TypeReport

SURFACE = ("SLocal", "SAssign", "SCallStmt", "SIf", "SWhile", "SSkip", "SAbort", "SSeq")

# A sample value per field annotation; every tuple field gets `()`.
SAMPLE = {"str": "a", "bool": True, "int": 7, "'Expr'": A.Var("v"), "'Command'": A.Skip(),
          "'TypeExpr'": A.INT, "object": A.Var("v")}

# `repr` of each class built from SAMPLE, as the unslotted dataclasses gave it.
REPRS = {
    "Var": "Var(name='a')",
    "NullLit": "NullLit()",
    "BoolLit": "BoolLit(value=True)",
    "IntLit": "IntLit(value=7)",
    "UnitLit": "UnitLit()",
    "FieldAccess": "FieldAccess(target=Var(name='v'), fieldname='a')",
    "Eq": "Eq(left=Var(name='v'), right=Var(name='v'))",
    "IntOp": "IntOp(op='a', left=Var(name='v'), right=Var(name='v'))",
    "InstanceTest": "InstanceTest(target=Var(name='v'), class_name='a')",
    "Cast": "Cast(class_name='a', target=Var(name='v'))",
    "CallExpr": "CallExpr(receiver=Var(name='v'), method='a', args=())",
    "SuperCallExpr": "SuperCallExpr(method='a', args=())",
    "NewExpr": "NewExpr(class_name='a')",
    "Skip": "Skip()",
    "Abort": "Abort()",
    "Assign": "Assign(name='a', expr=Var(name='v'))",
    "FieldAssign": "FieldAssign(target=Var(name='v'), fieldname='a', expr=Var(name='v'))",
    "NewAssign": "NewAssign(name='a', class_name='a')",
    "CallAssign": "CallAssign(name='a', receiver=Var(name='v'), method='a', args=())",
    "SuperCallAssign": "SuperCallAssign(name='a', method='a', args=())",
    "LocalBlock": "LocalBlock(var_type=PrimType(name='int'), name='a', init=Var(name='v'), body=Skip())",
    "If": "If(cond=Var(name='v'), then_cmd=Skip(), else_cmd=Skip())",
    "While": "While(cond=Var(name='v'), body=Skip())",
    "Seq": "Seq(items=())",
    "MethodDecl": "MethodDecl(name='a', return_type=PrimType(name='int'), params=(), body=Skip(), module_scoped=True)",
    "ClassDecl": "ClassDecl(name='a', super_name='a', fields=(), constructor=Skip(), methods=())",
    "SLocal": "SLocal(var_type=Var(name='v'), name='a', rhs=Var(name='v'), body=Var(name='v'))",
    "SAssign": "SAssign(lhs=Var(name='v'), rhs=Var(name='v'))",
    "SCallStmt": "SCallStmt(call=Var(name='v'))",
    "SIf": "SIf(cond=Var(name='v'), then_seq=Var(name='v'), else_seq=Var(name='v'))",
    "SWhile": "SWhile(cond=Var(name='v'), body=Var(name='v'))",
    "SSkip": "SSkip()",
    "SAbort": "SAbort()",
    "SSeq": "SSeq(items=())",
}


def _classes(module):
    return {n: c for n, c in vars(module).items()
            if isinstance(c, type) and issubclass(c, A.Node) and c is not A.Node}


CLASSES = {**_classes(A), **_classes(P)}


def _args(cls):
    return [() if f.type.startswith("Tuple") else SAMPLE[f.type]
            for f in dataclasses.fields(cls) if f.name != "span"]


def test_every_node_class_is_slotted_and_covered():
    spanned = {n for n, c in vars(A).items()
               if isinstance(c, type) and "span" in getattr(c, "__dataclass_fields__", {})}
    assert set(_classes(A)) == spanned and len(spanned) == 26
    assert set(_classes(P)) == set(SURFACE)
    assert set(CLASSES) == set(REPRS)
    # the two surface classes that carry `first_tmp` keep their `__dict__`
    assert not issubclass(P.SurfaceMethod, A.Node) and not issubclass(P.SurfaceClass, A.Node)


@pytest.mark.parametrize("name", sorted(REPRS))
def test_node_contract(name):
    cls = CLASSES[name]
    args = _args(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    n = cls(*args, A.Span(0, 1, 1, 1))
    assert not hasattr(n, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(n, names[0], None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(n, names[0])
    other = cls(*args, A.Span(5, 9, 2, 3))
    assert n == other and hash(n) == hash(other) and n.span != other.span
    assert repr(n) == repr(other) == REPRS[name]
    keyword = cls(**dict(zip(names, args)))
    assert keyword == n and keyword.span is None
    assert [getattr(n, f) for f in names] == [*args, A.Span(0, 1, 1, 1)]
    params = list(inspect.signature(cls.__init__).parameters.values())
    assert [p.name for p in params] == ["self", *names]
    for p, f in zip(params[1:], dataclasses.fields(cls)):
        want = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        assert (p.default, p.annotation, p.kind) == (want, f.type, p.POSITIONAL_OR_KEYWORD)
    if args:
        with pytest.raises(TypeError):
            cls()
    moved = dataclasses.replace(n, span=None)
    assert moved == n and moved.span is None and type(moved) is cls
    assert weakref.ref(n)() is n


def test_method_decl_defaults():
    m = A.MethodDecl("m", A.INT, (), A.Skip())
    assert m.module_scoped is False and m.span is None
    assert m == A.MethodDecl(name="m", return_type=A.INT, params=(), body=A.Skip(), module_scoped=False)
    assert dataclasses.replace(m, module_scoped=True).module_scoped is True


def _compared(x):
    return tuple(getattr(x, f.name) for f in dataclasses.fields(x) if f.compare)


SPAN = A.Span(0, 4, 1, 1)
ENTRY = EntryExpectation("Main", "main", "ok", 2, "clean", (("x.f", 1),))
STEP = Step("call", "o", "setg", (("lit", True), ("root", "c0")), "w0")
STEP_REPR = "Step(op='call', target='o', method='setg', args=(('lit', True), ('root', 'c0')), bind='w0', prot=False)"
VECTOR = VectorResult((Step("new", "o", "OBool"), STEP), 2, "fail", 1, "island 0: flags differ", ("setg",))
VECTOR_REPR = (
    "VectorResult(script=(Step(op='new', target='o', method='OBool', args=(), bind=None, prot=False), "
    f"{STEP_REPR}), fuel=2, status='fail', failed_at=1, message='island 0: flags differ', methods=('setg',))")

# name: (sample, a twin that differs only in fields left out of equality or
# None, `repr` of the sample as the frozen dataclass gave it)
RECORDS = {
    "Designations": (Designations("O", "R", "R2"), None, "Designations(own='O', rep='R', rep2='R2')"),
    "ConfinementViolation": (
        ConfinementViolation("SharedRep", "two owners", (Location("R", 1),), "after m"), None,
        "ConfinementViolation(kind='SharedRep', message='two owners', witness=(R@1,), context='after m')"),
    "ShapeError": (ShapeError(2, "no island"), None, "ShapeError(clause=2, message='no island')"),
    "CouplingFailure": (CouplingFailure("vector 3", "stores differ"), None,
                        "CouplingFailure(where='vector 3', message='stores differ')"),
    "BasicCoupling": (BasicCoupling("neg", "OBool/OBool", len), None,
                      "BasicCoupling(name='neg', target_pair='OBool/OBool', predicate=<built-in function len>)"),
    "Distinguished": (Distinguished("x.f", "1 vs 2"), None, "Distinguished(path='x.f', message='1 vs 2')"),
    "EquivVerdict": (
        EquivVerdict("equivalent", 3, ((Location("A", 0), Location("A", 0)),), "w"), None,
        "EquivVerdict(kind='equivalent', fuel_used=3, sigma=((A@0, A@0),), witness='w')"),
    "Bottom": (Bottom("fuel-exhausted", "in m", ("Main.main", "A.m")), Bottom("fuel-exhausted", "in m"),
               "Bottom(reason='fuel-exhausted', detail='in m', stack=('Main.main', 'A.m'))"),
    "Diagnostic": (
        Diagnostic("TypeMismatch", "int vs bool", SPAN, "C", "m"),
        Diagnostic("TypeMismatch", "int vs bool", None, "C", "m"),
        "Diagnostic(rule='TypeMismatch', message='int vs bool', span=Span(start=0, end=4, line=1, col=1),"
        " class_name='C', method_name='m')"),
    "SurfaceMethod": (
        P.SurfaceMethod("m", A.INT, (("x", A.INT),), A.Var("x"), False, SPAN),
        P.SurfaceMethod("m", A.INT, (("x", A.INT),), A.Var("x"), False),
        "SurfaceMethod(name='m', return_type=PrimType(name='int'), params=(('x', PrimType(name='int')),),"
        " body=Var(name='x'), module_scoped=False)"),
    "SurfaceClass": (
        P.SurfaceClass("C", "Object", (("f", A.INT),), None, (), SPAN),
        P.SurfaceClass("C", "Object", (("f", A.INT),), None, ()),
        "SurfaceClass(name='C', super_name='Object', fields=(('f', PrimType(name='int')),), constructor=None,"
        " methods=())"),
    "SurfaceProgram": (P.SurfaceProgram((), "class C extends Object {}"), P.SurfaceProgram(()),
                       "SurfaceProgram(classes=())"),
    "EntryExpectation": (
        ENTRY, None,
        "EntryExpectation(entry_class='Main', entry_method='main', outcome='ok', min_fuel=2, monitor='clean',"
        " finals=(('x.f', 1),))"),
    "CorpusRecord": (
        CorpusRecord("obool", "obool.jcore", "OBool", "Bool", None, "ok", (), (ENTRY,), "n"), None,
        "CorpusRecord(name='obool', path='obool.jcore', own='OBool', rep='Bool', rep2=None, check='ok',"
        " analyze=(), entries=(EntryExpectation(entry_class='Main', entry_method='main', outcome='ok',"
        " min_fuel=2, monitor='clean', finals=(('x.f', 1),)),), notes='n')"),
    "PrimType": (A.INT, A.PrimType("int"), "PrimType(name='int')"),
    "ClassType": (A.ClassType("C"), None, "ClassType(name='C')"),
    "NullType": (A.NULL_T, None, "NullType()"),
    "Step": (STEP, None, STEP_REPR),
    "RunResult": (RunResult(Bottom("fuel-exhausted", "in m"), 3, 12), None,
                  "RunResult(outcome=Bottom(reason='fuel-exhausted', detail='in m', stack=()), fuel_used=3, steps=12)"),
    "Partition": (
        Partition(((Location("O", 0), frozenset({Location("R", 1)})),), frozenset({Location("C", 2)}), frozenset()),
        None, "Partition(islands=((O@0, frozenset({R@1})),), clients=frozenset({C@2}), flexible=frozenset())"),
    "VectorResult": (VECTOR, None, VECTOR_REPR),
    "CouplingReport": (
        CouplingReport("obool-negation", (("OBool", True, ""),), (VECTOR,)), None,
        f"CouplingReport(coupling='obool-negation', establishment=(('OBool', True, ''),), vectors=({VECTOR_REPR},),"
        " note='bounded evidence: finite scripts and fuels, not a proof')"),
    "Manifest": (
        Manifest("m.json", "a.jcore", "b.jcore", "O", "R", "R2", coupling="obool-negation"), None,
        "Manifest(path='m.json', table_a='a.jcore', table_b='b.jcore', own='O', rep_a='R', rep_b='R2',"
        " entry_class=None, entry_method=None, max_fuel=1024, loop_cap=100000, coupling='obool-negation',"
        " fuels=(1, 2, 4, 8), max_len=4, max_scripts=120)"),
    "SafetyReport": (
        SafetyReport((Diagnostic("RepLeakViaCall", "leaks", None, "C", "m"),)), None,
        "SafetyReport(diagnostics=(Diagnostic(rule='RepLeakViaCall', message='leaks', span=None, class_name='C',"
        " method_name='m'),))"),
    "TypeReport": (TypeReport(()), None, "TypeReport(issues=())"),
    "_Prefix": (
        _Prefix(((None, None, None, 0), (None, None, None, 0)), "island 0: flags differ", ()), None,
        "_Prefix(sides=((None, None, None, 0), (None, None, None, 0)), verdict='island 0: flags differ',"
        " children=())"),
}


def _made_by_record():
    found, stack = [], [A.Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("jcore.") and sub is not A.Node:
                found.append(sub)
    return found


def test_every_record_class_shares_the_base_methods():
    classes = _made_by_record()
    assert {c.__name__ for c in classes} == set(REPRS) | set(RECORDS)
    for cls in classes:
        assert dataclasses.is_dataclass(cls) and cls.__doc__
        own = {"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"} & set(vars(cls))
        assert not own, (cls.__name__, own)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    x, twin, expected = RECORDS[name]
    cls = type(x)
    assert repr(x) == expected
    assert hash(x) == hash(_compared(x))
    same = dataclasses.replace(x)
    assert same == x and hash(same) == hash(x) and same is not x and type(same) is cls
    if twin is not None:
        assert twin == x and hash(twin) == hash(x)
    first = next((f.name for f in dataclasses.fields(cls) if f.compare), None)
    if first is not None:
        other = dataclasses.replace(x, **{first: "changed"})
        assert other != x and getattr(other, first) == "changed"
    assert x != _compared(x) and x.__eq__(_compared(x)) is NotImplemented
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, f.name)
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("name", sorted(REPRS))
def test_node_hash_is_the_hash_of_its_compared_fields(name):
    cls = CLASSES[name]
    n = cls(*_args(cls), SPAN)
    assert hash(n) == hash(_compared(n))
    assert copy.deepcopy(n) == n and pickle.loads(pickle.dumps(n)).span == SPAN


def test_decorating_a_class_compiles_one_source():
    compiled, counting = [], [True]
    sys.addaudithook(lambda event, args: counting[0] and event == "compile" and compiled.append(args[1]))

    class Leaf(A.Node):
        value: int

    class Pair(A.Record):
        left: int
        right: str = "r"

    class Bare:
        """`dataclass` with nothing to generate compiles no source up to 3.12, one from 3.13."""

        left: int

    try:
        dataclasses.dataclass(init=False, repr=False, eq=False)(Bare)
        own = len(compiled)
        Leaf = A.node(Leaf)
        assert len(compiled) == 2 * own + 1
        Pair = A.record(Pair)
        assert len(compiled) == 3 * own + 2
    finally:
        counting[0] = False
    assert Leaf(1) == Leaf(1, SPAN) and repr(Leaf(1)).endswith("<locals>.Leaf(value=1)")
    assert Pair(1) == Pair(1, "r") != Pair(1, "s") and hash(Pair(1)) == hash((1, "r"))
    assert Leaf.__doc__ == "Leaf(value, span)" and Pair.__doc__ == "Pair(left, right)"
