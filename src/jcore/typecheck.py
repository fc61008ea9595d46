"""Type checker: expression synthesis, command checking, whole-table checking.

Each construct synthesizes a unique type; subsumption happens at use sites
through explicit subtype side conditions, never as a separate rule. `null`
synthesizes an internal bottom type below every class type, which realizes
the polymorphic null rule. Field access and update are class-private: the
receiver must have exactly the type of the enclosing class. Commands are
checked one rule per node: `ast.walk_commands` supplies each node with its
context, so no rule recurses into its children. Rules test the node's class,
the most frequent kinds first.
"""

from __future__ import annotations

from dataclasses import field
from typing import Dict, List

from . import ast as A
from .ast import OBJECT, BOOL, INT, NULL_T, UNIT, ClassType, NullType, PrimType
from .classtable import ClassTable


class TypeCheckError(Exception):
    def __init__(self, rule: str, message: str, span=None):
        super().__init__(f"{rule}: {message}")
        self.rule = rule
        self.message = message
        self.span = span


@A.record
class Diagnostic(A.Record):
    """A finding of the type checker or the safety analysis."""

    rule: str
    message: str
    span: object = field(default=None, compare=False)
    class_name: str = ""
    method_name: str = ""

    def render(self) -> str:
        where = f"{self.class_name}.{self.method_name}" if self.method_name else self.class_name
        at = f" at {self.span}" if self.span else ""
        return f"{where}{at}: {self.rule}: {self.message}"


@A.record
class TypeReport(A.Record):
    """The type checker's findings; `ok` when there are none."""

    issues: List[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.issues


def _fail(rule, message, span=None):
    raise TypeCheckError(rule, message, span)


def type_of_expr(ct: ClassTable, gamma: Dict[str, object], e):
    """Synthesize the unique type of `e` under context `gamma`."""
    cls = e.__class__
    if cls is A.Var:
        t = gamma.get(e.name)
        if t is None:
            _fail("UndefinedVariable", f"variable {e.name} is not in scope", e.span)
        return t
    if cls is A.IntOp:
        for side in (e.left, e.right):
            t = type_of_expr(ct, gamma, side)
            if t != INT:
                _fail("TypeMismatch", f"operator {e.op} requires int operands, got {t}", e.span)
        return BOOL if e.op == "<" else INT
    if cls is A.IntLit:
        return INT
    if cls is A.FieldAccess:
        return _private_field_type(ct, gamma, e.target, e.fieldname, e.span, "accessed")
    if cls is A.NullLit:
        return NULL_T
    if cls is A.UnitLit:
        return UNIT
    if cls is A.Eq:
        type_of_expr(ct, gamma, e.left)
        type_of_expr(ct, gamma, e.right)
        return BOOL
    if cls is A.BoolLit:
        return BOOL
    if cls is A.Cast or cls is A.InstanceTest:
        name = e.class_name
        if not ct.declared(name):
            _fail("UndeclaredClass", f"unknown class {name}", e.span)
        t = type_of_expr(ct, gamma, e.target)
        if isinstance(t, PrimType):
            _fail("BadCastTarget", f"cannot test or cast a value of primitive type {t}", e.span)
        if not isinstance(t, NullType) and not ct.subtype_names(name, t.name):
            _fail("BadCastTarget", f"{name} is not a subclass of {t}", e.span)
        return BOOL if cls is A.InstanceTest else ClassType(name)
    if isinstance(e, A.SURFACE_ONLY_EXPRS):
        _fail("InternalError", "surface form survived desugaring", e.span)
    raise TypeError(f"not an expression: {e!r}")


def _private_field_type(ct, gamma, target, fieldname, span, verb):
    """The declared type of field `fieldname` of the enclosing class, read or
    updated on `target`, which must have exactly that class's type."""
    self_t = gamma["self"]
    t = type_of_expr(ct, gamma, target)
    if not (t == self_t or isinstance(t, NullType)):
        _fail(
            "PrivateFieldAccess",
            f"field {fieldname} may only be {verb} on expressions of type {self_t}, got {t}",
            span,
        )
    for f, ft in ct.dfields(self_t.name):
        if f == fieldname:
            return ft
    _fail("PrivateFieldAccess", f"{fieldname} is not a field declared in {self_t}", span)


def _check_assignable(ct, gamma, name, value_type, span, what):
    if name == "self":
        _fail("SelfAssignment", "self cannot be the target of an assignment", span)
    target_t = gamma.get(name)
    if target_t is None:
        _fail("UndefinedVariable", f"variable {name} is not in scope", span)
    if not ct.subtype(value_type, target_t):
        _fail("TypeMismatch", f"{what}: {value_type} is not a subtype of {target_t}", span)


def _check_call_args(ct, gamma, args, param_types, span):
    if len(args) != len(param_types):
        _fail("ArityMismatch", f"expected {len(param_types)} arguments, got {len(args)}", span)
    for a, pt in zip(args, param_types):
        at = type_of_expr(ct, gamma, a)
        if not ct.subtype(at, pt):
            _fail("TypeMismatch", f"argument of type {at} where {pt} is required", a.span or span)


def check_command(ct: ClassTable, gamma: Dict[str, object], cmd) -> None:
    """Check `cmd`; raises TypeCheckError on the first violation in preorder."""
    for sub, ctx in A.walk_commands(cmd, gamma):
        _check_node(ct, ctx, sub)


def _check_node(ct: ClassTable, gamma: Dict[str, object], cmd) -> None:
    """The typing rule of one command node, its children left to the walk."""
    cls = cmd.__class__
    if cls is A.Assign:
        t = type_of_expr(ct, gamma, cmd.expr)
        _check_assignable(ct, gamma, cmd.name, t, cmd.span, "assignment")
        return
    if cls is A.LocalBlock:
        if cmd.name == "self":
            _fail("SelfAssignment", "self cannot be redeclared", cmd.span)
        t = cmd.var_type
        if isinstance(t, ClassType) and not ct.declared(t.name):
            _fail("UndeclaredClass", f"unknown class {t.name}", cmd.span)
        it = type_of_expr(ct, gamma, cmd.init)
        if not ct.subtype(it, t):
            _fail("TypeMismatch", f"initializer of {cmd.name}: {it} is not a subtype of {t}", cmd.span)
        return
    if cls is A.Seq or cls is A.Skip or cls is A.Abort:
        return
    if cls is A.CallAssign:
        t = type_of_expr(ct, gamma, cmd.receiver)
        if not isinstance(t, ClassType):
            _fail("UndefinedMethod", f"cannot call a method on a value of type {t}", cmd.span)
        mt = ct.mtype(cmd.method, t.name)
        if mt is None:
            _fail("UndefinedMethod", f"{t.name} has no method {cmd.method}", cmd.span)
        param_types, ret = mt
        _check_call_args(ct, gamma, cmd.args, param_types, cmd.span)
        _check_assignable(ct, gamma, cmd.name, ret, cmd.span, f"result of {cmd.method}")
        if ct.mscope(cmd.method, t.name):
            self_t = gamma["self"]
            if ct.is_client_class(self_t.name):
                _fail(
                    "ModuleScopeViolation",
                    f"{cmd.method} is module-scoped and not visible in {self_t}",
                    cmd.span,
                )
        return
    if cls is A.FieldAssign:
        ft = _private_field_type(ct, gamma, cmd.target, cmd.fieldname, cmd.span, "updated")
        t2 = type_of_expr(ct, gamma, cmd.expr)
        if not ct.subtype(t2, ft):
            _fail("TypeMismatch", f"field {cmd.fieldname}: {t2} is not a subtype of {ft}", cmd.span)
        return
    if cls is A.If:
        t = type_of_expr(ct, gamma, cmd.cond)
        if t != BOOL:
            _fail("TypeMismatch", f"condition must be bool, got {t}", cmd.span)
        return
    if cls is A.While:
        t = type_of_expr(ct, gamma, cmd.cond)
        if t != BOOL:
            _fail("TypeMismatch", f"loop guard must be bool, got {t}", cmd.span)
        return
    if cls is A.NewAssign:
        if cmd.class_name == OBJECT:
            _fail("CannotInstantiate", f"{OBJECT} cannot be instantiated", cmd.span)
        if not ct.declared(cmd.class_name):
            _fail("UndeclaredClass", f"unknown class {cmd.class_name}", cmd.span)
        _check_assignable(ct, gamma, cmd.name, ClassType(cmd.class_name), cmd.span, "object construction")
        return
    if cls is A.SuperCallAssign:
        self_t = gamma["self"]
        sup = ct.super_of(self_t.name)
        if sup is None or sup == OBJECT:
            _fail("UndefinedMethod", f"{self_t} has no proper superclass with methods", cmd.span)
        mt = ct.mtype(cmd.method, sup)
        if mt is None:
            _fail("UndefinedMethod", f"super class {sup} has no method {cmd.method}", cmd.span)
        param_types, ret = mt
        _check_call_args(ct, gamma, cmd.args, param_types, cmd.span)
        _check_assignable(ct, gamma, cmd.name, ret, cmd.span, f"result of super.{cmd.method}")
        return
    raise TypeError(f"not a command: {cmd!r}")


def check_table(ct: ClassTable) -> TypeReport:
    """Check every method body, override invariance, and constructor typing."""
    issues: List[Diagnostic] = []

    def record(exc: TypeCheckError, cname: str, mname: str):
        issues.append(Diagnostic(exc.rule, exc.message, exc.span, cname, mname))

    for cname in sorted(ct.decls):
        decl = ct.decls[cname]
        for m in decl.methods:
            sup = decl.super_name
            if sup != OBJECT:
                inherited = ct.mtype(m.name, sup)
                if inherited is not None:
                    if inherited != (tuple(t for _, t in m.params), m.return_type):
                        problem = "changes the inherited signature"
                    elif ct.pars(m.name, sup) != tuple(x for x, _ in m.params):
                        problem = "renames inherited parameters"
                    else:
                        problem = None
                    if problem:
                        issues.append(Diagnostic("InvalidOverride", f"{cname}.{m.name} {problem}", m.span, cname, m.name))
                        continue
            try:
                check_command(ct, A.method_context(cname, m), m.body)
            except TypeCheckError as exc:
                record(exc, cname, m.name)
        # constructor: typed with self only, and free of method calls
        ctor = decl.constructor
        for sub, _ in A.walk_commands(ctor, {}):
            if isinstance(sub, (A.CallAssign, A.SuperCallAssign)):
                issues.append(Diagnostic(
                    "CallInConstructor",
                    f"constructor of {cname} contains a method call",
                    sub.span, cname, "con",
                ))
                break
        else:
            try:
                check_command(ct, {"self": ClassType(cname)}, ctor)
            except TypeCheckError as exc:
                record(exc, cname, "con")
    return TypeReport(issues)
