"""Syntax-directed safety analysis for ownership confinement.

Clients are only forbidden from constructing reps; all other constraints fall
on owner and rep code: rep-typed fields are read and written only through
`self` in the owner class itself, reps cross a call boundary only when the
receiver is `self` or the callee lives inside the module, and rep code never
smuggles a foreign owner in. Signature-level clauses keep reps out of the
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
    return isinstance(e, A.Var) and e.name == "self"


def _type_of(ct, gamma, e):
    try:
        return type_of_expr(ct, gamma, e)
    except TypeCheckError:
        return None  # ill-typed input; the type checker owns this complaint


class _Analysis:
    def __init__(self, ct: ClassTable):
        assert ct.designations is not None, "safety analysis requires designations"
        self.ct = ct
        self.own = ct.designations.own
        self.out: List[Diagnostic] = []
        self._cls = ""
        self._meth = ""

    def diag(self, rule, message, span):
        self.out.append(Diagnostic(rule, message, span, self._cls, self._meth))

    # context predicates; C is the class of the code under analysis
    def _c_is_own(self, c: str) -> bool:
        return c == self.own

    def _c_below_own(self, c: str) -> bool:
        return self.ct.subtype_names(c, self.own) and c != self.own

    def expr(self, gamma, e):
        ct = self.ct
        for sub in A.walk_exprs(e):
            if not isinstance(sub, A.FieldAccess):
                continue
            c = gamma["self"].name
            t = _type_of(ct, gamma, sub)
            if t is None:
                continue
            if self._c_is_own(c) and not _is_self(sub.target) and ct.comparable_to_rep(t):
                self.diag(
                    NON_SELF_PRIVATE_ACCESS,
                    f"rep-typed field {sub.fieldname} read through a non-self expression in the owner class",
                    sub.span,
                )
            elif self._c_below_own(c) and ct.comparable_to_rep(t):
                self.diag(
                    NON_SELF_PRIVATE_ACCESS,
                    f"rep-typed field {sub.fieldname} read in owner subclass {c}",
                    sub.span,
                )

    def command(self, gamma, cmd):
        for sub, ctx in A.walk_commands(cmd, gamma):
            self._node(ctx, sub)

    def _node(self, gamma, cmd):
        """The safety rule of one command node, its children left to the walk."""
        ct = self.ct
        c = gamma["self"].name
        if isinstance(cmd, (A.Skip, A.Abort, A.Seq)):
            return
        if isinstance(cmd, A.Assign):
            self.expr(gamma, cmd.expr)
            return
        if isinstance(cmd, A.FieldAssign):
            self.expr(gamma, cmd.target)
            self.expr(gamma, cmd.expr)
            u = _type_of(ct, gamma, cmd.expr)
            if u is not None and ct.comparable_to_rep(u):
                if self._c_is_own(c) and not _is_self(cmd.target):
                    self.diag(
                        NON_SELF_PRIVATE_UPDATE,
                        f"rep-typed value stored through a non-self expression in the owner class",
                        cmd.span,
                    )
                elif self._c_below_own(c):
                    self.diag(
                        NON_SELF_PRIVATE_UPDATE,
                        f"rep-typed value stored into a field in owner subclass {c}",
                        cmd.span,
                    )
            return
        if isinstance(cmd, A.NewAssign):
            b = cmd.class_name
            if ct.is_client_class(c) and ct.is_rep_class(b):
                self.diag(NEW_REP_IN_CLIENT, f"client {c} constructs rep {b}", cmd.span)
            if ct.is_rep_class(c) and ct.is_owner_class(b):
                self.diag(NEW_OWNER_IN_REP, f"rep {c} constructs owner {b}", cmd.span)
            return
        if isinstance(cmd, A.CallAssign):
            self.expr(gamma, cmd.receiver)
            for a in cmd.args:
                self.expr(gamma, a)
            d = _type_of(ct, gamma, cmd.receiver)
            if not isinstance(d, ClassType):
                return
            mt = ct.mtype(cmd.method, d.name)
            if mt is None:
                return
            param_types, _ = mt
            in_module = not ct.is_client_class(c)
            if ct.mscope(cmd.method, d.name) and not in_module:
                self.diag(
                    MODULE_SCOPE_VIOLATION,
                    f"module-scoped {cmd.method} called from outside the module",
                    cmd.span,
                )
            d_is_rep = ct.is_rep_class(d.name)
            d_is_own = ct.is_owner_class(d.name)
            if in_module and not d_is_rep and not d_is_own:
                bad = [t for t in param_types if ct.comparable_to_rep(t)]
                if bad:
                    self.diag(
                        REP_LEAK_VIA_CALL,
                        f"{cmd.method} on a client receiver takes rep-comparable parameters {bad}",
                        cmd.span,
                    )
            if ct.is_owner_class(c) and ct.comparable_to_own(d) and not _is_self(cmd.receiver):
                bad = [t for t in param_types if ct.comparable_to_rep(t)]
                if bad:
                    self.diag(
                        REP_TO_NON_SELF_OWNER,
                        f"{cmd.method} on a non-self owner receiver takes rep-comparable parameters {bad}",
                        cmd.span,
                    )
            if ct.is_owner_class(c) and ct.comparable_to_rep(d):
                for a, t in zip(cmd.args, param_types):
                    if not _is_self(a) and ct.comparable_to_own(t):
                        self.diag(
                            OWNER_ARG_TO_REP,
                            f"non-self argument of owner-comparable type {t} passed to rep method {cmd.method}",
                            cmd.span,
                        )
            return
        if isinstance(cmd, A.SuperCallAssign):
            for a in cmd.args:
                self.expr(gamma, a)
            return
        if isinstance(cmd, A.LocalBlock):
            self.expr(gamma, cmd.init)
            return
        if isinstance(cmd, (A.If, A.While)):
            self.expr(gamma, cmd.cond)
            return
        raise TypeError(f"not a core command: {cmd!r}")


def safe_expr(ct: ClassTable, gamma: Dict[str, object], e) -> List[Diagnostic]:
    an = _Analysis(ct)
    an._cls = gamma["self"].name
    an.expr(gamma, e)
    return an.out


def safe_command(ct: ClassTable, gamma: Dict[str, object], cmd) -> List[Diagnostic]:
    an = _Analysis(ct)
    an._cls = gamma["self"].name
    an.command(gamma, cmd)
    return an.out


def safe_table(ct: ClassTable) -> SafetyReport:
    an = _Analysis(ct)
    ct_des = ct.designations
    # bodies and constructors
    for cname in sorted(ct.decls):
        decl = ct.decls[cname]
        an._cls = cname
        for m in decl.methods:
            an._meth = m.name
            an.command(A.method_context(cname, m), m.body)
        an._meth = "con"
        an.command({"self": ClassType(cname)}, decl.constructor)
    an._meth = ""
    # public owner methods may not return anything comparable to a rep
    reported = set()
    for cname in sorted(ct.decls):
        if not ct.is_owner_class(cname):
            continue
        for m in ct.method_names(cname):
            decl_class, mdecl = ct.resolve_method(m, cname)
            key = (decl_class, m)
            if key in reported:
                continue
            if not mdecl.module_scoped and ct.comparable_to_rep(mdecl.return_type):
                reported.add(key)
                an._cls = cname
                an._meth = m
                an.diag(
                    OWNER_PUBLIC_RETURNS_REP,
                    f"public owner method {m} (declared in {decl_class}) returns {mdecl.return_type}, comparable to a rep class",
                    mdecl.span,
                )
    # methods inherited into the owner class from strictly above it
    an._cls = ct_des.own
    for m in ct.method_names(ct_des.own):
        decl_class, mdecl = ct.resolve_method(m, ct_des.own)
        if decl_class != ct_des.own and ct.subtype_names(ct_des.own, decl_class):
            bad = [t for _, t in mdecl.params if ct.comparable_to_rep(t)]
            if bad:
                an._meth = m
                an.diag(
                    OWNER_INHERITS_REP_PARAMS,
                    f"{m}, inherited from {decl_class}, has rep-comparable parameters {bad}",
                    mdecl.span,
                )
    # nothing may be inherited into a rep class from strictly above it
    for rname in ct_des.rep_names():
        an._cls = rname
        for m in ct.method_names(rname):
            decl_class, mdecl = ct.resolve_method(m, rname)
            if decl_class != rname and ct.subtype_names(rname, decl_class):
                an._meth = m
                an.diag(
                    REP_INHERITS_FOREIGN,
                    f"rep class {rname} inherits {m} from {decl_class}",
                    mdecl.span,
                )
    diags = sorted(an.out, key=lambda d: (d.class_name, d.method_name, d.rule, d.message))
    return SafetyReport(diags)
