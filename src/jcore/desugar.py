"""Lowering of surface programs to the core AST, in A-normal form (C.
Flanagan, A. Sabry, B. Duba and M. Felleisen, "The Essence of Compiling with
Continuations", PLDI 1993).

One rule eliminates the three abbreviations: each method call is hoisted
into a fresh local, strictly left to right, receiver before arguments, and
every fresh local has one block shape, `T tmp := default(T) in first; rest`,
whose `first` runs the call (or the `new`) and whose `rest` uses the result:

* a method call used as a statement is a call assignment to a fresh,
  otherwise unused local, with the `rest` `skip`;
* `new` into a field goes through a fresh local, and `new` into a local is
  that local's default-initialized block plus an object construction;
* method calls in expression position (receivers, arguments, operands,
  guards) are hoisted into fresh locals around their statement; a loop
  guard's hoisted calls run again at the end of the loop body.

Fresh locals are named `$tmp0`, `$tmp1`, ... with the counter reset per body;
a hand-written identifier cannot collide with them, because each body's
numbering starts at the `first_tmp` the parser recorded for it: one past any
`$tmpN` among the identifiers between the body's braces, and 0 when the source
has no `$` at all. The pass is idempotent: lowering a program that is already
in core form changes nothing.

Hoisted locals are typed by a signature-level synthesis over the surface
program; where a call cannot be resolved (the program is ill-typed), the
local falls back to `unit` and the type checker reports the real error.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from . import ast as A
from .parser import (
    SAbort, SAssign, SCallStmt, SIf, SLocal, SSeq, SSkip, SWhile,
    SurfaceClass, SurfaceProgram, parse,
)


def default_literal(t):
    if t == A.BOOL:
        return A.BoolLit(False)
    if t == A.INT:
        return A.IntLit(0)
    if t == A.UNIT:
        return A.UnitLit()
    return A.NullLit()


class _Sigs:
    """Signature-level view of a surface program, for typing hoisted locals."""

    def __init__(self, prog: SurfaceProgram):
        self.classes: Dict[str, SurfaceClass] = {c.name: c for c in prog.classes}

    def super_of(self, name: str) -> Optional[str]:
        c = self.classes.get(name)
        return c.super_name if c else None

    def _chain(self, cname: str):
        """`cname` and its superclasses, up to Object, an unknown name or a cycle."""
        seen = set()
        while cname and cname != A.OBJECT and cname in self.classes and cname not in seen:
            seen.add(cname)
            yield self.classes[cname]
            cname = self.classes[cname].super_name

    def field_type(self, cname: str, fname: str):
        return next((ft for c in self._chain(cname) for fn, ft in c.fields if fn == fname), None)

    def method_sig(self, cname: str, mname: str):
        return next((m for c in self._chain(cname) for m in c.methods if m.name == mname), None)


class _BodyLowerer:
    def __init__(self, sigs: _Sigs, cls: SurfaceClass, first_tmp: int):
        self.sigs = sigs
        self.cls = cls
        self.counter = first_tmp

    def fresh(self) -> str:
        name = f"$tmp{self.counter}"
        self.counter += 1
        return name

    # -- type synthesis over surface expressions (best effort)

    def synth(self, e, env) -> Optional[object]:
        if isinstance(e, A.Var):
            return env.get(e.name)
        if isinstance(e, A.BoolLit):
            return A.BOOL
        if isinstance(e, A.IntLit):
            return A.INT
        if isinstance(e, A.UnitLit):
            return A.UNIT
        if isinstance(e, A.NullLit):
            return None
        if isinstance(e, (A.Eq, A.InstanceTest)):
            return A.BOOL
        if isinstance(e, A.IntOp):
            return A.BOOL if e.op == "<" else A.INT
        if isinstance(e, A.Cast):
            return A.ClassType(e.class_name)
        if isinstance(e, A.FieldAccess):
            t = self.synth(e.target, env)
            if isinstance(t, A.ClassType):
                return self.sigs.field_type(t.name, e.fieldname)
            return None
        if isinstance(e, A.CallExpr):
            t = self.synth(e.receiver, env)
            if isinstance(t, A.ClassType):
                m = self.sigs.method_sig(t.name, e.method)
                if m:
                    return m.return_type
            return None
        if isinstance(e, A.SuperCallExpr):
            sup = self.sigs.super_of(self.cls.name)
            if sup:
                m = self.sigs.method_sig(sup, e.method)
                if m:
                    return m.return_type
            return None
        return None

    # -- hoisting

    def hoist(self, e, env, bindings: List[Tuple[object, str, object]]):
        """Rewrite `e` so it contains no calls; emit (type, name, call) bindings."""
        if isinstance(e, (A.Var, A.NullLit, A.BoolLit, A.IntLit, A.UnitLit)):
            return e
        # a node whose children come back unchanged (no call beneath it) is kept
        if isinstance(e, (A.FieldAccess, A.InstanceTest, A.Cast)):
            target = self.hoist(e.target, env, bindings)
            return e if target is e.target else replace(e, target=target)
        if isinstance(e, (A.Eq, A.IntOp)):
            left = self.hoist(e.left, env, bindings)
            right = self.hoist(e.right, env, bindings)
            return e if left is e.left and right is e.right else replace(e, left=left, right=right)
        if isinstance(e, (A.CallExpr, A.SuperCallExpr)):
            t = self.synth(e, env) or A.UNIT
            call = self.hoist_call(e, env, bindings)
            name = self.fresh()
            bindings.append((t, name, call))
            return A.Var(name, e.span)
        raise TypeError(f"unexpected surface expression: {e!r}")

    def hoist_call(self, call, env, bindings: List[Tuple[object, str, object]]):
        """Hoist the calls in the receiver, then in the arguments, of `call`;
        return `call` over the call-free forms."""
        # both call nodes are (receiver, if any; method; args; span)
        receiver = () if isinstance(call, A.SuperCallExpr) else (self.hoist(call.receiver, env, bindings),)
        args = tuple(self.hoist(a, env, bindings) for a in call.args)
        return call.__class__(*receiver, call.method, args, call.span)

    def _call_assign(self, name, call):
        if isinstance(call, A.SuperCallExpr):
            return A.SuperCallAssign(name, call.method, call.args, call.span)
        return A.CallAssign(name, call.receiver, call.method, call.args, call.span)

    def _block(self, t, name, first, rest, span):
        """`t name := default(t) in first; rest`, the one shape of a temp's block."""
        return A.LocalBlock(t, name, default_literal(t), A.seq([first, rest]), span)

    def _wrap(self, bindings, core_cmd):
        """Wrap a command in the blocks of the hoisted calls, the first outermost."""
        for t, name, call in reversed(bindings):
            core_cmd = self._block(t, name, self._call_assign(name, call), core_cmd, call.span)
        return core_cmd

    # -- statements

    def lower_seq(self, items: List[object], env) -> object:
        """Lower a statement list. A local without `in` scopes over the rest
        of the list, so each open local keeps the command list of the scope
        around it; at the end the scopes close from the innermost out."""
        outer: List[Tuple[List[object], Callable[[object], object]]] = []
        cmds: List[object] = []
        for s in items:
            if isinstance(s, SSeq):
                # a braced group is a closed scope: locals inside it do not
                # extend over the statements that follow the group
                cmds.append(self.lower_seq(list(s.items), env))
            elif isinstance(s, SLocal):
                close = self.lower_local(s, env)
                inner = {**env, s.name: s.var_type}
                if s.body is None:
                    outer.append((cmds, close))
                    cmds, env = [], inner
                else:
                    cmds.append(close(self.lower_seq([s.body], inner)))
            else:
                cmds.append(self.lower_one(s, env))
        body = A.seq(cmds)
        while outer:
            cmds, close = outer.pop()
            cmds.append(close(body))
            body = A.seq(cmds)
        return body

    def lower_local(self, s: SLocal, env) -> Callable[[object], object]:
        """Hoist the initializer of local `s` now, before its scope is lowered,
        so fresh locals are numbered left to right; return the function that
        builds the local's block around its lowered scope."""
        bindings: List[Tuple[object, str, object]] = []
        rhs, init, first = s.rhs, default_literal(s.var_type), None
        if isinstance(rhs, A.NewExpr):
            first = A.NewAssign(s.name, rhs.class_name, s.span)
        elif isinstance(rhs, (A.CallExpr, A.SuperCallExpr)):
            first = self._call_assign(s.name, self.hoist_call(rhs, env, bindings))
        else:
            init = self.hoist(rhs, env, bindings)

        def close(body):
            if first is not None:
                body = A.seq([first, body])
            return self._wrap(bindings, A.LocalBlock(s.var_type, s.name, init, body, s.span))

        return close

    def lower_one(self, s, env) -> object:
        """Lower one statement other than a local or a group: hoist the calls
        its expressions make into `bindings`, build its core command over the
        call-free forms, and wrap that in the hoisted calls' blocks."""
        bindings: List[Tuple[object, str, object]] = []
        if isinstance(s, SSkip):
            cmd = A.Skip(s.span)
        elif isinstance(s, SAbort):
            cmd = A.Abort(s.span)
        elif isinstance(s, SIf):
            cond = self.hoist(s.cond, env, bindings)
            cmd = A.If(cond, self.lower_seq([s.then_seq], env), self.lower_seq([s.else_seq], env), s.span)
        elif isinstance(s, SWhile):
            cond = self.hoist(s.cond, env, bindings)
            # an effectful guard re-runs its hoisted calls at the end of each
            # iteration, so the loop observes a fresh guard value
            recalls = [self._call_assign(n, c) for _, n, c in bindings]
            cmd = A.While(cond, A.seq([self.lower_seq([s.body], env), *recalls]), s.span)
        elif isinstance(s, SCallStmt):
            t = self.synth(s.call, env) or A.UNIT
            call = self.hoist_call(s.call, env, bindings)
            name = self.fresh()
            cmd = self._block(t, name, self._call_assign(name, call), A.Skip(), s.span)
        elif isinstance(s, SAssign) and isinstance(s.lhs, A.Var):
            rhs, name = s.rhs, s.lhs.name
            if isinstance(rhs, A.NewExpr):
                cmd = A.NewAssign(name, rhs.class_name, s.span)
            elif isinstance(rhs, (A.CallExpr, A.SuperCallExpr)):
                cmd = self._call_assign(name, self.hoist_call(rhs, env, bindings))
            else:
                cmd = A.Assign(name, self.hoist(rhs, env, bindings), s.span)
        elif isinstance(s, SAssign):
            # a field store `e.f := rhs`; a `new` or a call goes through a temp
            rhs, field = s.rhs, s.lhs.fieldname
            if isinstance(rhs, A.NewExpr):
                tmp = self.fresh()  # named before the calls in `e` are hoisted
                store = A.FieldAssign(self.hoist(s.lhs.target, env, bindings), field, A.Var(tmp), s.span)
                new = A.NewAssign(tmp, rhs.class_name, s.span)
                cmd = self._block(A.ClassType(rhs.class_name), tmp, new, store, s.span)
            elif isinstance(rhs, (A.CallExpr, A.SuperCallExpr)):
                t = self.synth(rhs, env) or A.UNIT
                target = self.hoist(s.lhs.target, env, bindings)
                call = self.hoist_call(rhs, env, bindings)
                tmp = self.fresh()
                store = A.FieldAssign(target, field, A.Var(tmp), s.span)
                cmd = self._block(t, tmp, self._call_assign(tmp, call), store, s.span)
            else:
                target = self.hoist(s.lhs.target, env, bindings)
                cmd = A.FieldAssign(target, field, self.hoist(rhs, env, bindings), s.span)
        else:
            raise TypeError(f"unexpected surface statement: {s!r}")
        return self._wrap(bindings, cmd)


def desugar(prog: SurfaceProgram) -> List[A.ClassDecl]:
    sigs = _Sigs(prog)
    out: List[A.ClassDecl] = []
    for c in prog.classes:
        methods = []
        for m in c.methods:
            body = _BodyLowerer(sigs, c, m.first_tmp).lower_seq([m.body], A.method_context(c.name, m))
            methods.append(A.MethodDecl(m.name, m.return_type, m.params, body, m.module_scoped, m.span))
        if c.constructor is None:
            ctor = A.Skip()
        else:
            env = {"self": A.ClassType(c.name)}
            ctor = _BodyLowerer(sigs, c, c.con_first_tmp).lower_seq([c.constructor], env)
        out.append(A.ClassDecl(c.name, c.super_name, c.fields, ctor, tuple(methods), c.span))
    return out


def parse_and_desugar(src: str) -> List[A.ClassDecl]:
    return desugar(parse(src))
