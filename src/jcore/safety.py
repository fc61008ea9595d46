"""Syntax-directed safety analysis for ownership confinement.

Each rule binds one kind of code, and the analysis decides once per body,
from its class's role, which kind that body is. Client code may not
construct reps or call module-scoped methods, and rep code may not construct
owners. Module (owner and rep) code passes nothing rep-comparable to a
client receiver. Owner code (the owner class and its subclasses) passes
nothing rep-comparable to a non-self owner and no non-self owner to a rep.
The owner class reads and writes rep-typed fields only through `self`, and
its subclasses not at all; this is the one expression rule, so expressions
are walked only in owner code. Signature-level clauses keep reps out of the
public owner interface. All diagnostics are collected; the analysis never
stops at the first finding. Commands get one rule per node, applied in the
preorder of `ast.walk_commands`, which supplies each node's context.
"""

from __future__ import annotations

from typing import Dict, List, Set

from . import ast as A
from .ast import ClassType
from .classtable import ClassTable
from .typecheck import Diagnostic, TypeCheckError, type_of_expr

NEW_REP_IN_CLIENT = "NewRepInClient"
NEW_OWNER_IN_REP = "NewOwnerInRep"
NON_SELF_PRIVATE_ACCESS = "NonSelfPrivateAccess"
NON_SELF_PRIVATE_UPDATE = "NonSelfPrivateUpdate"
REP_LEAK_VIA_CALL = "RepLeakViaCall"
REP_TO_NON_SELF_OWNER = "RepToNonSelfOwner"
OWNER_ARG_TO_REP = "OwnerArgToRep"
MODULE_SCOPE_VIOLATION = "ModuleScopeViolation"
OWNER_PUBLIC_RETURNS_REP = "OwnerPublicReturnsRep"
OWNER_INHERITS_REP_PARAMS = "OwnerInheritsRepParams"
REP_INHERITS_FOREIGN = "RepInheritsForeign"


@A.record
class SafetyReport(A.Record):
    """The safety analysis's findings; `ok` when there are none."""

    diagnostics: List[Diagnostic]

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def rules(self) -> Set[str]:
        return {d.rule for d in self.diagnostics}


def _is_self(e) -> bool:
    return e.__class__ is A.Var and e.name == "self"


def _type_of(ct, gamma, e):
    try:
        return type_of_expr(ct, gamma, e)
    except TypeCheckError:
        return None  # ill-typed input; the type checker owns this complaint


class _Analysis:
    def __init__(self, ct: ClassTable):
        assert ct.designations is not None, "safety analysis requires designations"
        self.ct = ct
        self.out: List[Diagnostic] = []

    def code(self, cls: str, member: str) -> "_Analysis":
        """Name the class and member whose code comes next, and decide once
        which rules bind it: client, rep or owner code, and among owner code
        whether it is a subclass of the owner class."""
        self._cls, self._meth = cls, member
        role = self.ct.role(cls)
        self.client, self.rep, self.owner = role == "client", role == "rep", role == "owner"
        self.sub = self.owner and cls != self.ct.designations.own
        return self

    def diag(self, rule, message, span):
        self.out.append(Diagnostic(rule, message, span, self._cls, self._meth))

    def expr(self, gamma, *es):
        """Rep-typed field reads, the one expression rule: through `self` only
        in the owner class, not at all in its subclasses, free elsewhere."""
        if not self.owner:
            return
        ct = self.ct
        for e in es:
            for sub in A.walk_exprs(e):
                if sub.__class__ is A.FieldAccess and (self.sub or not _is_self(sub.target)):
                    if ct.comparable_to_rep(_type_of(ct, gamma, sub)):
                        self.diag(
                            NON_SELF_PRIVATE_ACCESS,
                            f"rep-typed field {sub.fieldname} read in owner subclass {self._cls}" if self.sub else
                            f"rep-typed field {sub.fieldname} read through a non-self expression in the owner class",
                            sub.span,
                        )

    def command(self, gamma, cmd):
        for sub, ctx in A.walk_commands(cmd, gamma):
            self._node(ctx, sub)

    def _node(self, gamma, cmd):
        """The safety rule of one command node, its children left to the walk."""
        cls = cmd.__class__
        if cls is A.Assign:
            self.expr(gamma, cmd.expr)
        elif cls is A.LocalBlock:
            self.expr(gamma, cmd.init)
        elif cls is A.Seq or cls is A.Skip or cls is A.Abort:
            pass
        elif cls is A.CallAssign:
            self.expr(gamma, cmd.receiver, *cmd.args)
            self._call(gamma, cmd)
        elif cls is A.FieldAssign:
            self.expr(gamma, cmd.target, cmd.expr)
            if self.owner and (self.sub or not _is_self(cmd.target)) and (
                self.ct.comparable_to_rep(_type_of(self.ct, gamma, cmd.expr))
            ):
                self.diag(
                    NON_SELF_PRIVATE_UPDATE,
                    f"rep-typed value stored into a field in owner subclass {self._cls}" if self.sub else
                    "rep-typed value stored through a non-self expression in the owner class",
                    cmd.span,
                )
        elif cls is A.If or cls is A.While:
            self.expr(gamma, cmd.cond)
        elif cls is A.NewAssign:
            b = cmd.class_name
            if self.client and self.ct.is_rep_class(b):
                self.diag(NEW_REP_IN_CLIENT, f"client {self._cls} constructs rep {b}", cmd.span)
            elif self.rep and self.ct.is_owner_class(b):
                self.diag(NEW_OWNER_IN_REP, f"rep {self._cls} constructs owner {b}", cmd.span)
        elif cls is A.SuperCallAssign:
            self.expr(gamma, *cmd.args)
        else:
            raise TypeError(f"not a core command: {cmd!r}")

    def _call(self, gamma, cmd):
        """The call rules; each needs the receiver's class."""
        ct = self.ct
        d = _type_of(ct, gamma, cmd.receiver)
        found = ct.resolve_method(cmd.method, d.name) if isinstance(d, ClassType) else None
        if found is None:
            return
        m = found[1]
        if self.client:
            if m.module_scoped:
                self.diag(
                    MODULE_SCOPE_VIOLATION, f"module-scoped {cmd.method} called from outside the module", cmd.span
                )
            return
        bad = [t for _, t in m.params if ct.comparable_to_rep(t)]
        if bad and ct.is_client_class(d.name):
            self.diag(
                REP_LEAK_VIA_CALL,
                f"{cmd.method} on a client receiver takes rep-comparable parameters {bad}",
                cmd.span,
            )
        if not self.owner:
            return
        if bad and ct.comparable_to_own(d) and not _is_self(cmd.receiver):
            self.diag(
                REP_TO_NON_SELF_OWNER,
                f"{cmd.method} on a non-self owner receiver takes rep-comparable parameters {bad}",
                cmd.span,
            )
        if ct.comparable_to_rep(d):
            for a, (_, t) in zip(cmd.args, m.params):
                if not _is_self(a) and ct.comparable_to_own(t):
                    self.diag(
                        OWNER_ARG_TO_REP,
                        f"non-self argument of owner-comparable type {t} passed to rep method {cmd.method}",
                        cmd.span,
                    )


def safe_expr(ct: ClassTable, gamma: Dict[str, object], e) -> List[Diagnostic]:
    an = _Analysis(ct).code(gamma["self"].name, "")
    an.expr(gamma, e)
    return an.out


def safe_command(ct: ClassTable, gamma: Dict[str, object], cmd) -> List[Diagnostic]:
    an = _Analysis(ct).code(gamma["self"].name, "")
    an.command(gamma, cmd)
    return an.out


def safe_table(ct: ClassTable) -> SafetyReport:
    an = _Analysis(ct)
    own = ct.designations.own
    # bodies and constructors
    for cname in sorted(ct.decls):
        decl = ct.decls[cname]
        for m in decl.methods:
            an.code(cname, m.name).command(A.method_context(cname, m), m.body)
        an.code(cname, "con").command({"self": ClassType(cname)}, decl.constructor)
    # public owner methods may not return anything comparable to a rep
    reported = set()
    for cname in sorted(ct.decls):
        if not ct.is_owner_class(cname):
            continue
        for m in ct.method_names(cname):
            decl_class, mdecl = ct.resolve_method(m, cname)
            key = (decl_class, m)
            if key not in reported and not mdecl.module_scoped and ct.comparable_to_rep(mdecl.return_type):
                reported.add(key)
                an.code(cname, m).diag(
                    OWNER_PUBLIC_RETURNS_REP,
                    f"public owner method {m} (declared in {decl_class}) returns {mdecl.return_type}, comparable to a rep class",
                    mdecl.span,
                )
    # methods inherited into the owner class from strictly above it
    for m in ct.method_names(own):
        decl_class, mdecl = ct.resolve_method(m, own)
        bad = [t for _, t in mdecl.params if ct.comparable_to_rep(t)]
        if decl_class != own and bad:
            an.code(own, m).diag(
                OWNER_INHERITS_REP_PARAMS,
                f"{m}, inherited from {decl_class}, has rep-comparable parameters {bad}",
                mdecl.span,
            )
    # nothing may be inherited into a rep class from strictly above it
    for rname in ct.designations.rep_names():
        for m in ct.method_names(rname):
            decl_class, mdecl = ct.resolve_method(m, rname)
            if decl_class != rname:
                an.code(rname, m).diag(
                    REP_INHERITS_FOREIGN, f"rep class {rname} inherits {m} from {decl_class}", mdecl.span
                )
    diags = sorted(an.out, key=lambda d: (d.class_name, d.method_name, d.rule, d.message))
    return SafetyReport(diags)
