"""Core abstract syntax: data types, expressions, commands, declarations.

Expressions are effect-free. Object construction and method calls occur only
as assignment commands, so the interpreter and the analyses never have to
deal with effects inside expressions. Everything here is immutable; spans are
carried for diagnostics but excluded from equality.

Syntax nodes are frozen dataclasses with slots, made by `node`. Each ends with
an optional `span` field, is one GC-tracked object with no `__dict__`, and has
a generated `__init__` that stores every field through its slot.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
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


class Node:
    """Base of the slotted nodes: no `__dict__`, but weak references."""

    __slots__ = ("__weakref__",)


def node(cls):
    """`cls`, a `Node` subclass, as a frozen dataclass with slots and a last
    field `span` that equality and `repr` leave out. Its `__init__` is
    generated to store each field through its slot descriptor
    (`cls.f.__set__`) instead of going through the frozen `__setattr__`."""
    cls.__annotations__ = {**cls.__dict__.get("__annotations__", {}), "span": "Optional[Span]"}
    cls.span = field(default=None, compare=False, repr=False)
    cls = dataclass(frozen=True, slots=True)(cls)
    fs = fields(cls)
    env = {f"_set_{f.name}": getattr(cls, f.name).__set__ for f in fs}
    env.update((f"_dflt_{f.name}", f.default) for f in fs)
    params = "".join(f", {f.name}" + ("" if f.default is MISSING else f"=_dflt_{f.name}") for f in fs)
    stores = "".join(f"\n    _set_{f.name}(self, {f.name})" for f in fs)
    exec(f"def __init__(self{params}):{stores}", env)
    cls.__init__ = env["__init__"]
    cls.__init__.__annotations__ = {**{f.name: f.type for f in fs}, "return": None}
    return cls


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


@node
class Var(Node):
    name: str


@node
class NullLit(Node):
    """The literal `null`."""


@node
class BoolLit(Node):
    value: bool


@node
class IntLit(Node):
    value: int


@node
class UnitLit(Node):
    """The unit value `it`."""


@node
class FieldAccess(Node):
    target: "Expr"
    fieldname: str


@node
class Eq(Node):
    left: "Expr"
    right: "Expr"


@node
class IntOp(Node):
    op: str  # '+' | '-' | 'mod' | '<'
    left: "Expr"
    right: "Expr"


@node
class InstanceTest(Node):
    target: "Expr"
    class_name: str


@node
class Cast(Node):
    class_name: str
    target: "Expr"


# Surface-only expression forms. The desugarer removes every occurrence; the
# type checker and the interpreter reject them outright.


@node
class CallExpr(Node):
    receiver: "Expr"
    method: str
    args: Tuple["Expr", ...]


@node
class SuperCallExpr(Node):
    method: str
    args: Tuple["Expr", ...]


@node
class NewExpr(Node):
    class_name: str


Expr = (
    "Var | NullLit | BoolLit | IntLit | UnitLit | FieldAccess | Eq | IntOp"
    " | InstanceTest | Cast | CallExpr | SuperCallExpr | NewExpr"
)

SURFACE_ONLY_EXPRS = (CallExpr, SuperCallExpr, NewExpr)


# ---------------------------------------------------------------------------
# Commands


@node
class Skip(Node):
    """`skip`."""


@node
class Abort(Node):
    """`abort`, which bottoms the run."""


@node
class Assign(Node):
    name: str
    expr: "Expr"


@node
class FieldAssign(Node):
    target: "Expr"
    fieldname: str
    expr: "Expr"


@node
class NewAssign(Node):
    name: str
    class_name: str


@node
class CallAssign(Node):
    name: str
    receiver: "Expr"
    method: str
    args: Tuple["Expr", ...]


@node
class SuperCallAssign(Node):
    name: str
    method: str
    args: Tuple["Expr", ...]


@node
class LocalBlock(Node):
    var_type: "TypeExpr"
    name: str
    init: "Expr"
    body: "Command"


@node
class If(Node):
    cond: "Expr"
    then_cmd: "Command"
    else_cmd: "Command"


@node
class While(Node):
    cond: "Expr"
    body: "Command"


@node
class Seq(Node):
    items: Tuple["Command", ...]


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


@node
class MethodDecl(Node):
    name: str
    return_type: "TypeExpr"
    params: Tuple[Tuple[str, "TypeExpr"], ...]
    body: "Command"
    module_scoped: bool = False


@node
class ClassDecl(Node):
    name: str
    super_name: str
    fields: Tuple[Tuple[str, "TypeExpr"], ...]
    constructor: "Command"
    methods: Tuple[MethodDecl, ...]

    def method(self, name: str) -> Optional[MethodDecl]:
        for m in self.methods:
            if m.name == name:
                return m
        return None


def walk_commands(cmd, gamma):
    """Yield `(command, context)` for every command node in `cmd`, preorder:
    a `Seq`'s items in order, `then` before `else`. `cmd` is under `gamma`; a
    `LocalBlock`'s body is under `{**gamma, name: var_type}` and every other
    child is under its parent's context. The walk keeps its own stack, so
    nesting depth is not bounded by the recursion limit."""
    stack = [(cmd, gamma)]
    while stack:
        cmd, gamma = stack.pop()
        yield cmd, gamma
        if isinstance(cmd, LocalBlock):
            stack.append((cmd.body, {**gamma, cmd.name: cmd.var_type}))
        elif isinstance(cmd, If):
            stack += (cmd.else_cmd, gamma), (cmd.then_cmd, gamma)
        elif isinstance(cmd, While):
            stack.append((cmd.body, gamma))
        elif isinstance(cmd, Seq):
            stack += ((it, gamma) for it in reversed(cmd.items))


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
    """Yield every sub-expression of `expr`, preorder: a receiver before its
    arguments, left before right. The walk keeps its own stack."""
    stack = [expr]
    while stack:
        expr = stack.pop()
        yield expr
        if isinstance(expr, (FieldAccess, InstanceTest, Cast)):
            stack.append(expr.target)
        elif isinstance(expr, (Eq, IntOp)):
            stack += expr.right, expr.left
        elif isinstance(expr, CallExpr):
            stack += reversed(expr.args)
            stack.append(expr.receiver)
        elif isinstance(expr, SuperCallExpr):
            stack += reversed(expr.args)
