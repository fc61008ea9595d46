"""Core abstract syntax: data types, expressions, commands, declarations.

Expressions are effect-free. Object construction and method calls occur only
as assignment commands, so the interpreter and the analyses never have to
deal with effects inside expressions. Everything here is immutable; spans are
carried for diagnostics but excluded from equality.

Syntax nodes are slotted records made by `node`, each ending with a `span`
field. A record is a dataclass whose only generated method is `__init__`;
equality, hashing, `repr` and frozenness are shared from `Record`. Every
value class of the package is a record, save three named tuples: `Span`,
`interp.Location` and `parser.Token`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from operator import attrgetter
from typing import Optional, Tuple

OBJECT = "Object"  # built-in root class: no fields, no methods, not instantiable


class Span(namedtuple("Span", "start end line col")):
    """Half-open character range [start, end) with 1-based line/col of start."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Record:
    """The methods `dataclass(frozen=True)` would generate for each record,
    written once: equality and `hash(_key(self))` over the fields named in
    `_compared` (`_key` gets them as a tuple, in C), `repr` of `_shown`."""

    __slots__ = ()

    def __eq__(self, other):
        if self is other:  # most type comparisons meet one of the shared constants, as in `t == INT`
            return True
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls, slots=False):
    """`cls`, a `Record` subclass, as a dataclass whose one generated method,
    and one compiled source, is `__init__`. It stores each field through its
    slot descriptor with `slots`, else through `object.__setattr__`. A class
    without a docstring gets `Name(field, ...)`, sparing `dataclass` a call
    of `inspect.signature`."""
    cls.__doc__ = cls.__doc__ or f"{cls.__name__}({', '.join(cls.__dict__.get('__annotations__', ()))})"
    cls = dataclass(init=False, repr=False, eq=False, slots=slots)(cls)
    fs = fields(cls)
    names = cls._compared = tuple(f.name for f in fs if f.compare)
    cls._shown = tuple(f.name for f in fs if f.repr)
    get = attrgetter(*names) if names else None
    # `attrgetter` of one name returns the bare value, not a 1-tuple
    cls._key = get if len(names) > 1 else staticmethod(lambda self: (get(self),) if get else ())
    env = {"_setattr": object.__setattr__, **{f"_dflt_{f.name}": f.default for f in fs}}
    env.update((f"_set_{f.name}", getattr(cls, f.name).__set__) for f in fs if slots)
    store = "\n    _set_{0}(self, {0})" if slots else "\n    _setattr(self, {0!r}, {0})"
    stores = "".join(store.format(f.name) for f in fs)
    params = "".join(f", {f.name}" + ("" if f.default is MISSING else f"=_dflt_{f.name}") for f in fs)
    exec(f"def __init__(self{params}):{stores or ' pass'}", env)
    cls.__init__ = env["__init__"]
    cls.__init__.__annotations__ = {**{f.name: f.type for f in fs}, "return": None}
    return cls


def same_tree(a, b) -> bool:
    """`a == b` for trees of records and tuples, compared pair by pair from
    an explicit stack, so a deep tree cannot exhaust the Python stack."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Record) and a.__class__ is b.__class__:
            stack.append((a._key(a), b._key(b)))
        elif type(a) is tuple and type(b) is tuple and len(a) == len(b):
            stack.extend(zip(a, b))
        elif a != b:
            return False
    return True


class Node(Record):
    """Base of the slotted nodes: no `__dict__`, but weak references."""

    __slots__ = ("__weakref__",)

    def __reduce__(self):  # `copy` and `pickle` rebuild a node through `__init__`
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


def node(cls):
    """`cls` as a slotted `record` with a last field `span`, left out of equality and `repr`."""
    cls.__annotations__ = {**cls.__dict__.get("__annotations__", {}), "span": "Optional[Span]"}
    cls.span = field(default=None, compare=False, repr=False)
    return record(cls, slots=True)


# ---------------------------------------------------------------------------
# Data types


@record
class PrimType(Record):
    name: str  # 'bool' | 'unit' | 'int'

    def __str__(self) -> str:
        return self.name


@record
class ClassType(Record):
    name: str

    def __str__(self) -> str:
        return self.name


@record
class NullType(Record):
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


def method_context(class_name: str, method) -> dict:
    """The context of the body of a core or surface `method` of `class_name`."""
    return dict(method.params, self=ClassType(class_name), result=method.return_type)


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
        cls = cmd.__class__
        if cls is LocalBlock:
            stack.append((cmd.body, {**gamma, cmd.name: cmd.var_type}))
        elif cls is Seq:
            stack += ((it, gamma) for it in reversed(cmd.items))
        elif cls is If:
            stack += (cmd.else_cmd, gamma), (cmd.then_cmd, gamma)
        elif cls is While:
            stack.append((cmd.body, gamma))


def walk_exprs(expr):
    """Yield every sub-expression of `expr`, preorder: a receiver before its
    arguments, left before right. The walk keeps its own stack."""
    stack = [expr]
    while stack:
        expr = stack.pop()
        yield expr
        cls = expr.__class__
        if cls is IntOp or cls is Eq:
            stack += expr.right, expr.left
        elif cls is FieldAccess or cls is InstanceTest or cls is Cast:
            stack.append(expr.target)
        elif cls is CallExpr:
            stack += reversed(expr.args)
            stack.append(expr.receiver)
        elif cls is SuperCallExpr:
            stack += reversed(expr.args)
