"""Core abstract syntax: data types, expressions, commands, declarations.

Expressions are effect-free. Object construction and method calls occur only
as assignment commands, so the interpreter and the analyses never have to
deal with effects inside expressions. Everything here is immutable; spans are
carried for diagnostics but excluded from equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

OBJECT = "Object"  # built-in root class: no fields, no methods, not instantiable


class Span(NamedTuple):
    """Half-open character range [start, end) with 1-based line/col of start."""

    start: int
    end: int
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _span_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Data types


@dataclass(frozen=True)
class PrimType:
    name: str  # 'bool' | 'unit' | 'int'

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ClassType:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class NullType:
    """Internal type of the literal `null`; below every class type."""

    def __str__(self) -> str:
        return "<null>"


TypeExpr = "PrimType | ClassType | NullType"

BOOL = PrimType("bool")
UNIT = PrimType("unit")
INT = PrimType("int")
NULL_T = NullType()

PRIM_NAMES = {"bool": BOOL, "unit": UNIT, "int": INT}


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Var:
    name: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class NullLit:
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class BoolLit:
    value: bool
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class IntLit:
    value: int
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class UnitLit:
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class FieldAccess:
    target: "Expr"
    fieldname: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Eq:
    left: "Expr"
    right: "Expr"
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class IntOp:
    op: str  # '+' | '-' | 'mod' | '<'
    left: "Expr"
    right: "Expr"
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class InstanceTest:
    target: "Expr"
    class_name: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Cast:
    class_name: str
    target: "Expr"
    span: Optional[Span] = _span_field()


# Surface-only expression forms. The desugarer removes every occurrence; the
# type checker and the interpreter reject them outright.


@dataclass(frozen=True)
class CallExpr:
    receiver: "Expr"
    method: str
    args: Tuple["Expr", ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class SuperCallExpr:
    method: str
    args: Tuple["Expr", ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class NewExpr:
    class_name: str
    span: Optional[Span] = _span_field()


Expr = (
    "Var | NullLit | BoolLit | IntLit | UnitLit | FieldAccess | Eq | IntOp"
    " | InstanceTest | Cast | CallExpr | SuperCallExpr | NewExpr"
)

SURFACE_ONLY_EXPRS = (CallExpr, SuperCallExpr, NewExpr)


# ---------------------------------------------------------------------------
# Commands


@dataclass(frozen=True)
class Skip:
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Abort:
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Assign:
    name: str
    expr: "Expr"
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class FieldAssign:
    target: "Expr"
    fieldname: str
    expr: "Expr"
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class NewAssign:
    name: str
    class_name: str
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class CallAssign:
    name: str
    receiver: "Expr"
    method: str
    args: Tuple["Expr", ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class SuperCallAssign:
    name: str
    method: str
    args: Tuple["Expr", ...]
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class LocalBlock:
    var_type: "TypeExpr"
    name: str
    init: "Expr"
    body: "Command"
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class If:
    cond: "Expr"
    then_cmd: "Command"
    else_cmd: "Command"
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class While:
    cond: "Expr"
    body: "Command"
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class Seq:
    items: Tuple["Command", ...]
    span: Optional[Span] = _span_field()


Command = (
    "Skip | Abort | Assign | FieldAssign | NewAssign | CallAssign"
    " | SuperCallAssign | LocalBlock | If | While | Seq"
)


def seq(items) -> "Command":
    """Sequence a list of commands, flattening nested sequences; skips are kept."""
    flat = []
    for it in items:
        if isinstance(it, Seq):
            flat.extend(it.items)
        else:
            flat.append(it)
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class MethodDecl:
    name: str
    return_type: "TypeExpr"
    params: Tuple[Tuple[str, "TypeExpr"], ...]
    body: "Command"
    module_scoped: bool = False
    span: Optional[Span] = _span_field()


@dataclass(frozen=True)
class ClassDecl:
    name: str
    super_name: str
    fields: Tuple[Tuple[str, "TypeExpr"], ...]
    constructor: "Command"
    methods: Tuple[MethodDecl, ...]
    span: Optional[Span] = _span_field()

    def method(self, name: str) -> Optional[MethodDecl]:
        for m in self.methods:
            if m.name == name:
                return m
        return None


def walk_commands(cmd):
    """Yield every command node in `cmd`, preorder."""
    yield cmd
    if isinstance(cmd, LocalBlock):
        yield from walk_commands(cmd.body)
    elif isinstance(cmd, If):
        yield from walk_commands(cmd.then_cmd)
        yield from walk_commands(cmd.else_cmd)
    elif isinstance(cmd, While):
        yield from walk_commands(cmd.body)
    elif isinstance(cmd, Seq):
        for it in cmd.items:
            yield from walk_commands(it)


def exprs_of_command(cmd):
    """Immediate constituent expressions of a single command node."""
    if isinstance(cmd, Assign):
        return [cmd.expr]
    if isinstance(cmd, FieldAssign):
        return [cmd.target, cmd.expr]
    if isinstance(cmd, CallAssign):
        return [cmd.receiver, *cmd.args]
    if isinstance(cmd, SuperCallAssign):
        return list(cmd.args)
    if isinstance(cmd, LocalBlock):
        return [cmd.init]
    if isinstance(cmd, (If, While)):
        return [cmd.cond]
    return []


def walk_exprs(expr):
    """Yield every sub-expression of `expr`, preorder."""
    yield expr
    if isinstance(expr, FieldAccess):
        yield from walk_exprs(expr.target)
    elif isinstance(expr, (Eq, IntOp)):
        yield from walk_exprs(expr.left)
        yield from walk_exprs(expr.right)
    elif isinstance(expr, (InstanceTest, Cast)):
        yield from walk_exprs(expr.target)
    elif isinstance(expr, CallExpr):
        yield from walk_exprs(expr.receiver)
        for a in expr.args:
            yield from walk_exprs(a)
    elif isinstance(expr, SuperCallExpr):
        for a in expr.args:
            yield from walk_exprs(a)
