"""The contract of the slotted syntax nodes: every node class of `jcore.ast`
and every slotted surface class of `jcore.parser` behaves as the plain frozen
dataclass it was, without a `__dict__`."""

import dataclasses
import inspect
import weakref

import pytest

from jcore import ast as A
from jcore import parser as P

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
