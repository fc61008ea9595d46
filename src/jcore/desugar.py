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
    """Signature-level view of a surface program, for typing hoisted locals: per
    class, its superclass, and the types of its own and inherited fields and
    of its methods' results by name. The most-derived declaration wins, and
    within a class the first."""

    def __init__(self, prog: SurfaceProgram):
        classes = {c.name: c for c in prog.classes}
        self.supers = {name: c.super_name for name, c in classes.items()}
        self.fields: Dict[str, Dict[str, object]] = {}
        self.results: Dict[str, Dict[str, object]] = {}
        for name in classes:
            chain, sup = [], name  # names up to Object, an unknown name or a cycle
            while sup != A.OBJECT and sup in classes and sup not in chain:
                chain.append(sup)
                sup = classes[sup].super_name
            ancestry = [classes[c] for c in reversed(chain)]  # base first, so later writes win
            self.fields[name] = {f: t for c in ancestry for f, t in reversed(c.fields)}
            self.results[name] = {m.name: m.return_type for c in ancestry for m in reversed(c.methods)}


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
        # `hoist` hands in calls; the recursion meets their receivers and field targets
        cls = e.__class__
        sigs = self.sigs
        if cls is A.CallExpr:
            t = self.synth(e.receiver, env)
            return sigs.results.get(t.name, {}).get(e.method) if isinstance(t, A.ClassType) else None
        if cls is A.Var:
            return env.get(e.name)
        if cls is A.FieldAccess:
            t = self.synth(e.target, env)
            return sigs.fields.get(t.name, {}).get(e.fieldname) if isinstance(t, A.ClassType) else None
        if cls is A.SuperCallExpr:
            return sigs.results.get(sigs.supers.get(self.cls.name), {}).get(e.method)
        if cls is A.IntOp:
            return A.BOOL if e.op == "<" else A.INT
        if cls is A.IntLit:
            return A.INT
        if cls is A.BoolLit or cls is A.Eq or cls is A.InstanceTest:
            return A.BOOL
        if cls is A.UnitLit:
            return A.UNIT
        if cls is A.Cast:
            return A.ClassType(e.class_name)
        return None  # `null`, or a form with no type

    # -- hoisting

    def hoist(self, e, env, bindings: List[Tuple[object, str, object]]):
        """Rewrite `e` so it contains no calls; emit (type, name, call) bindings.
        A node with no call beneath it is kept. Kinds are tested by class."""
        cls = e.__class__
        if cls is A.Var:
            return e
        if cls is A.IntOp or cls is A.Eq:
            left = self.hoist(e.left, env, bindings)
            right = self.hoist(e.right, env, bindings)
            return e if left is e.left and right is e.right else replace(e, left=left, right=right)
        if cls is A.IntLit or cls is A.BoolLit or cls is A.NullLit or cls is A.UnitLit:
            return e
        if cls is A.CallExpr or cls is A.SuperCallExpr:
            t = self.synth(e, env) or A.UNIT
            call = self.hoist_call(e, env, bindings)
            name = self.fresh()
            bindings.append((t, name, call))
            return A.Var(name, e.span)
        if cls is A.FieldAccess or cls is A.InstanceTest or cls is A.Cast:
            target = self.hoist(e.target, env, bindings)
            return e if target is e.target else replace(e, target=target)
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
