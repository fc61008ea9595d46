"""Definitional interpreter: heaps, stores, allocation, and method meanings.

A heap is a dict from locations to object states (dicts from field names to
values); a store is a dict from variables to values. Each public `Runtime`
entry (`invoke` and `new_object`; `run` goes through `new_object`) copies the
caller's heap once, so the caller keeps a heap it owns whatever the outcome:
the paper's value semantics. Inside an entry field writes and allocations
update that copy in place, allocation resuming the least-index scan of
`fresh` from per-class cursors, and each command updates the store of its
frame, which nothing else reaches, in place (Hudak and Bloss, POPL 1985).
A bottom unwinds from where it arises to the public entry, which returns it.

A class table keeps the code of each method body, constructor and entry body
it runs: closures compiled on first use by `_compile`, the one place that
dispatches on a node's type (Feeley and Lapalme, "Using closures for code
generation", 1987), each command under its typing context (as
`ast.walk_commands` gives it from `ast.method_context`), so its code runs on
a heap, a store and fuel alone. Observation is decided there too: a runtime
with hooks runs code compiled to report to them, kept apart from the code of
a runtime without, which tests no hook. The call rule is stated once, in the
compiled call, which `invoke` runs and which keeps its callee per receiver
class (Deutsch and Schiffman, POPL 1984); the tree walker is the test oracle.
A parent reads some leaves in place instead of calling their code, as
superoperators do (Proebsting, POPL 1995): a variable or literal operand of
`IntOp` or `Eq`, the `null` of `e = null` (an identity test), a variable
target of a field read, a variable receiver and an argument list of
variables. Without hooks, a block whose body is a `Seq` runs its items in
its own loop, and a `skip` item counts its step but calls nothing.

Method meanings are approximated by a fuel counter: a call executed with
fuel j runs the callee body with fuel j-1, and any call at fuel 0 yields the
fuel-exhausted bottom. Fuel acts only at a call, so the execution at fuel f
is the execution at any larger fuel up to its first call nested deeper than
f, where it bottoms. A `Runtime` records the least fuel any call ran at; one
execution at the budget then answers iterative deepening over 1, 2, 4, ...,
budget: its minimal sufficient fuel is the first of these that reaches every
call the execution made. A successful outcome at some fuel is identical at
every larger fuel, so this is the limit semantics whenever the program
terminates within the budget.

Bottom outcomes carry a diagnostic reason. For equivalence purposes every
reason is the same improper value; fuel exhaustion is kept separate because
it means "undetermined at this approximation" rather than a genuine error.
"""

from __future__ import annotations

import math
import operator
from collections import deque, namedtuple
from dataclasses import field
from typing import Dict, List, Optional, Tuple

from . import ast as A
from .ast import BOOL, INT, UNIT, ClassType
from .classtable import ClassTable

NIL_DEREF = "nil-dereference"
CAST_FAILURE = "cast-failure"
ABORT = "explicit-abort"
FUEL_EXHAUSTED = "fuel-exhausted"
MAX_FUEL = 1024  # default fuel budget of a run
LOOP_CAP = 100000  # default cap on the iterations of one loop execution


class Unit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "it"


IT = Unit()


class Location(namedtuple("Location", "class_name index")):
    __slots__ = ()

    def __repr__(self):
        return f"{self.class_name}@{self.index}"


@A.record
class Bottom(A.Record):
    reason: str
    detail: str = ""
    stack: Tuple[str, ...] = field(default=(), compare=False)

    def is_fuel(self) -> bool:
        return self.reason == FUEL_EXHAUSTED


Heap = Dict[Location, Dict[str, object]]
Store = Dict[str, object]


class EntryClassError(Exception):
    pass


def fresh(class_name: str, heap: Heap, start: int = 0) -> Location:
    """Least-index parametric allocator: depends only on the per-class slice.
    Scanning from `start` gives the same location whenever no index of the
    class below `start` is free."""
    n = start
    while Location(class_name, n) in heap:
        n += 1
    return Location(class_name, n)


def default_value(t):
    return {BOOL: False, INT: 0, UNIT: IT}.get(t)  # None (null) for a class type


def value_kind(v) -> str:
    if v is None:
        return "nil"
    if v is IT:
        return "unit"
    if type(v) is bool:
        return "bool"
    if type(v) is int:
        return "int"
    if isinstance(v, Location):
        return "loc"
    raise TypeError(f"not a value: {v!r}")


def values_equal(a, b) -> bool:
    """Equality on values: same kind and equal; locations by identity."""
    return value_kind(a) == value_kind(b) and a == b


def reachable(h: Heap, roots) -> set:
    seen = set()
    stack = [v for v in roots if isinstance(v, Location)]
    while stack:
        loc = stack.pop()
        if loc in seen or loc not in h:
            continue
        seen.add(loc)
        for v in h[loc].values():
            if isinstance(v, Location):
                stack.append(v)
    return seen


def collect(h: Heap, eta: Store) -> Tuple[Heap, Store]:
    """Restrict the heap to the cells reachable from the store."""
    live = reachable(h, eta.values())
    return {loc: h[loc] for loc in sorted(live)}, eta


class InterpHooks:
    """Observation points; the monitor and the test invariants plug in here.

    The heap a hook receives is the running heap, updated in place after the
    hook returns: a hook that keeps a state beyond its own call must copy it.
    The store a hook receives is a snapshot nothing changes later: it may keep it.
    A `gamma` is the static typing context of the command (or of the call
    site), the same object at every execution of it: a hook must not change it.
    `after_alloc` sees the heap with the new object in its default state;
    `before_write` sees it before `loc.fieldname := value` lands.
    """

    def after_alloc(self, heap, loc):
        pass

    def before_write(self, heap, loc, fieldname, value):
        pass

    def after_command(self, gamma, cmd, outcome):
        pass

    def before_call(self, caller_gamma, callee_class, callee_store, heap, site, mscoped):
        pass

    def after_call(self, caller_gamma, callee_class, callee_store, outcome, site, mscoped):
        pass


class HookChain(InterpHooks):
    def __init__(self, *hooks):
        self.hooks = [h for h in hooks if h is not None]

    def after_alloc(self, *a):
        for h in self.hooks:
            h.after_alloc(*a)

    def before_write(self, *a):
        for h in self.hooks:
            h.before_write(*a)

    def after_command(self, *a):
        for h in self.hooks:
            h.after_command(*a)

    def before_call(self, *a):
        for h in self.hooks:
            h.before_call(*a)

    def after_call(self, *a):
        for h in self.hooks:
            h.after_call(*a)


class TraceHooks(InterpHooks):
    """One line per executed command: node kind, source span, state digest."""

    def __init__(self):
        self.lines: List[str] = []

    def after_command(self, gamma, cmd, outcome):
        span = getattr(cmd, "span", None)
        if isinstance(outcome, Bottom):
            digest = f"bottom:{outcome.reason}"
        else:
            digest = state_digest(*outcome)
        self.lines.append(f"{type(cmd).__name__}@{span or '?'} {digest}")


@A.record
class RunResult(A.Record):
    """A run's outcome with the fuel and the steps it spent."""

    outcome: object  # Bottom | (heap, store)
    fuel_used: int
    steps: int = 0

    @property
    def ok(self) -> bool:
        return not isinstance(self.outcome, Bottom)


class _Stop(Exception):
    """A bottom unwinding to the public entry, which returns it."""

    def __init__(self, bottom: Bottom):
        self.bottom = bottom


class Runtime:
    def __init__(self, ct: ClassTable, loop_cap: int = LOOP_CAP, hooks: Optional[InterpHooks] = None):
        self.ct = ct
        self.loop_cap = loop_cap
        self.hooks = hooks
        self._code = vars(ct).setdefault("_code", {}).setdefault(hooks is not None, {})  # see `_compiled`
        self._stack: List[str] = []
        self._next: Dict[str, int] = {}  # per class: no free index below this in the entry's heap
        self.steps = 0
        self.low_fuel = math.inf  # least fuel at which any call ran its body

    def _stop(self, reason, detail=""):
        return _Stop(Bottom(reason, detail, tuple(self._stack)))

    def _entry(self, h: Heap, body):
        """Run `body` on a copy of the caller's heap with the cursors reset;
        a bottom raised inside is the result."""
        self._next = {}
        try:
            return body({loc: dict(state) for loc, state in h.items()})
        except _Stop as stop:
            return stop.bottom

    # -- public entries: each works on its own copy of the caller's heap

    def new_object(self, class_name: str, h: Heap):
        return self._entry(h, lambda h: (h, self._new_object(class_name, h)))

    def invoke(self, loc: Location, mname: str, args, h: Heap, fuel: int):
        """`loc.mname(args)` at `fuel`: the compiled call `result := self.mname($0, ...)`, with no call site."""
        names, key = [f"${i}" for i in range(len(args))], (mname, len(args))
        call = self._code.get(key) or self._code.setdefault(
            key, _compile(A.CallAssign("result", A.Var("self"), mname, tuple(map(A.Var, names)))))
        eta = dict(zip(names, args), self=loc)
        return self._entry(h, lambda h: (h, call(self, h, eta, fuel)["result"]))

    # -- the table's code, one set for runtimes with hooks and one for those
    # without, compiled on first use, keyed by a command node's id and context
    # (the entry holds the node, so its id is not reused), by (method, start
    # class), by class or by (method, arity). A node two declarations share
    # gets one code per context, and its hooks one context object per code.

    def _compiled(self, node, gamma):
        key = (id(node), *gamma.items())
        entry = self._code.get(key) or self._code.setdefault(key, (node, _child(node, gamma, self.hooks is not None)))
        return entry[1]

    def _method(self, mname: str, start: str):
        """`mname` resolved from class `start`, with all that a call of it needs."""
        entry = self._code.get((mname, start))
        if entry is None:
            resolved = self.ct.resolve_method(mname, start)
            assert resolved is not None, f"unresolvable method {mname} on {start}"
            decl_class, m = resolved
            entry = self._code[mname, start] = (
                tuple(x for x, _ in m.params), default_value(m.return_type),
                self._compiled(m.body, A.method_context(decl_class, m)), f"{decl_class}.{mname}", m.module_scoped,
            )
        return entry

    def _class(self, class_name: str):
        """The default state of a `class_name` object; its constructor chain, root first."""
        entry = self._code.get(class_name)
        if entry is None:
            entry = self._code[class_name] = (
                {f: default_value(t) for f, t in self.ct.fields(class_name)},
                [(f"{c}.con", self._compiled(self.ct.decls[c].constructor, {"self": ClassType(c)}))
                 for c in reversed(self.ct.ancestors(class_name)[:-1])],
            )
        return entry

    # Inside an entry heap and store are updated in place: the steps below
    # return the store they were given or a value, and raise `_Stop` at a bottom.

    def _new_object(self, class_name: str, h: Heap) -> Location:
        defaults, constructors = self._class(class_name)
        loc = fresh(class_name, h, self._next.get(class_name, 0))
        self._next[class_name] = loc.index + 1
        h[loc] = dict(defaults)
        if self.hooks:
            self.hooks.after_alloc(h, loc)
        self._exec_constructor(constructors, h, loc)
        return loc

    def _exec_command(self, gamma, cmd, h: Heap, eta: Store, fuel: int) -> Store:
        self.steps += 1
        return self._compiled(cmd, gamma)(self, h, eta, fuel)

    def _exec_constructor(self, constructors, h: Heap, loc: Location):
        """Run a constructor chain, as `_class` gives it, on `loc`."""
        for label, c in constructors:
            self._stack.append(label)
            self.steps += 1
            try:
                c(self, h, {"self": loc}, 0)
            finally:
                self._stack.pop()


_ABSENT = object()  # a variable a block's store lacks; `None` is null
_INT_OPS = {"+": operator.add, "-": operator.sub, "mod": lambda d1, d2: d1 % d2 if d2 != 0 else 0}
# The code of `op(left, right)` by how `_compile`'s `operand` reads each
# side: a variable or a literal in place, any other expression by its code.
_BINARY = {
    ("var", "var"): lambda op, a, b: lambda rt, h, eta: op(eta[a], eta[b]),
    ("var", "lit"): lambda op, a, b: lambda rt, h, eta: op(eta[a], b),
    ("var", "code"): lambda op, a, b: lambda rt, h, eta: op(eta[a], b(rt, h, eta)),
    ("lit", "var"): lambda op, a, b: lambda rt, h, eta: op(a, eta[b]),
    ("lit", "lit"): lambda op, a, b: lambda rt, h, eta: op(a, b),
    ("lit", "code"): lambda op, a, b: lambda rt, h, eta: op(a, b(rt, h, eta)),
    ("code", "var"): lambda op, a, b: lambda rt, h, eta: op(a(rt, h, eta), eta[b]),
    ("code", "lit"): lambda op, a, b: lambda rt, h, eta: op(a(rt, h, eta), b),
    ("code", "code"): lambda op, a, b: lambda rt, h, eta: op(a(rt, h, eta), b(rt, h, eta)),
}


def _child(node, gamma, observe):
    """The code of the command `node` under `gamma` as its parent runs it:
    with `observe`, reporting its outcome to `after_command`."""
    c = _compile(node, gamma, observe)
    if not observe:
        return c
    def observed(rt, h, eta, fuel):
        try:
            eta = c(rt, h, eta, fuel)
        except _Stop as stop:
            rt.hooks.after_command(gamma, node, stop.bottom)
            raise
        rt.hooks.after_command(gamma, node, (h, dict(eta)))  # a snapshot the hook may keep
        return eta
    return observed


def _compile(node, gamma=None, observe=False):
    """Compile a core expression to a closure `(rt, h, eta) -> value`, or a
    core command, under its typing context `gamma`, to a closure
    `(rt, h, eta, fuel) -> eta` that updates `eta` in place, subtrees
    included; with `observe`, for a runtime with hooks. This is the one
    place that dispatches on the node type."""

    def operand(e):
        """How a parent reads the expression `e`: ("var", its name) and
        ("lit", its value) in place, ("code", its code) otherwise."""
        k = type(e)
        if k is A.Var:
            return "var", e.name
        if k in (A.NullLit, A.BoolLit, A.IntLit, A.UnitLit):
            return "lit", None if k is A.NullLit else IT if k is A.UnitLit else e.value
        return "code", _compile(e)

    def variable(e):
        """The name of the variable `e` and no code, or no name and the code of `e`."""
        return (e.name, None) if type(e) is A.Var else (None, _compile(e))

    t = type(node)
    if t is A.Var or t in (A.NullLit, A.BoolLit, A.IntLit, A.UnitLit):
        kind, x = operand(node)
        return (lambda rt, h, eta: eta[x]) if kind == "var" else lambda rt, h, eta: x
    if t is A.Eq or t is A.IntOp:
        if t is A.IntOp:
            op = _INT_OPS.get(node.op, operator.lt)
        else:  # only null equals null
            op = operator.is_ if type(node.right) is A.NullLit else values_equal
        (lkind, left), (rkind, right) = operand(node.left), operand(node.right)
        return _BINARY[lkind, rkind](op, left, right)
    if t is A.FieldAccess:
        (var, target), fieldname = variable(node.target), node.fieldname
        def field_access(rt, h, eta):
            l = eta[var] if target is None else target(rt, h, eta)
            if l is None:
                raise rt._stop(NIL_DEREF, f"field {fieldname} of null")
            assert l in h, "expression produced a dangling location"
            return h[l][fieldname]
        return field_access
    if t is A.Cast:
        target, class_name = _compile(node.target), node.class_name
        def cast(rt, h, eta):
            l = target(rt, h, eta)
            if l is None or rt.ct.subtype_names(l.class_name, class_name):
                return l
            raise rt._stop(CAST_FAILURE, f"{l.class_name} is not a {class_name}")
        return cast
    if t is A.InstanceTest:
        target, class_name = _compile(node.target), node.class_name
        return lambda rt, h, eta: (l := target(rt, h, eta)) is not None and rt.ct.subtype_names(l.class_name, class_name)
    if t is A.Skip:
        return lambda rt, h, eta, fuel: eta
    if t is A.Abort:
        def abort(rt, h, eta, fuel):
            raise rt._stop(ABORT)
        return abort
    if t is A.Assign:
        name, (kind, x) = node.name, operand(node.expr)
        def assign(rt, h, eta, fuel):
            eta[name] = eta[x] if kind == "var" else x if kind == "lit" else x(rt, h, eta)
            return eta
        return assign
    if t is A.FieldAssign:
        (var, target), fieldname, (kind, x) = variable(node.target), node.fieldname, operand(node.expr)
        def field_assign(rt, h, eta, fuel):
            l = eta[var] if target is None else target(rt, h, eta)
            if l is None:
                raise rt._stop(NIL_DEREF, f"update of field {fieldname} of null")
            d = eta[x] if kind == "var" else x if kind == "lit" else x(rt, h, eta)
            if observe:
                rt.hooks.before_write(h, l, fieldname, d)
            h[l][fieldname] = d
            return eta
        return field_assign
    if t is A.NewAssign:
        name, class_name = node.name, node.class_name
        def new_assign(rt, h, eta, fuel):
            eta[name] = rt._new_object(class_name, h)
            return eta
        return new_assign
    if t is A.CallAssign or t is A.SuperCallAssign:
        name, mname, arity = node.name, node.method, len(node.args)
        if t is A.SuperCallAssign:  # `x := super.m(args)` calls `self`, looked up above its class
            var, receiver, self_class = "self", None, gamma["self"].name
        else:
            (var, receiver), self_class = variable(node.receiver), None
        arg = code = get = args = None  # one argument is read by `arg` or `code`, more by `get` or `args`
        if arity == 1:
            arg, code = variable(node.args[0])
        elif arity and all(type(a) is A.Var for a in node.args):
            get = operator.itemgetter(*(a.name for a in node.args))
        elif arity:
            args = [_compile(a) for a in node.args]
        methods = {}  # start class -> `rt._method(mname, start)`; this code serves one table and one `observe`
        def call(rt, h, eta, fuel):
            loc = eta[var] if receiver is None else receiver(rt, h, eta)
            if self_class is not None:
                start = rt.ct.super_of(self_class)
            elif loc is None:
                raise rt._stop(NIL_DEREF, f"call of {mname} on null")
            else:
                start = loc.class_name
            if arity == 0:
                values = ()
            elif arity == 1:
                values = (eta[arg] if code is None else code(rt, h, eta),)
            else:
                values = get(eta) if args is None else [a(rt, h, eta) for a in args]
            if fuel <= 0:
                raise rt._stop(FUEL_EXHAUSTED, f"call to {mname}")
            pars, result, c, label, mscoped = methods.get(start) or methods.setdefault(start, rt._method(mname, start))
            if observe:
                store = dict(zip(pars, values), self=loc)
                rt.hooks.before_call(gamma, start, store, h, node, mscoped)
            if fuel < rt.low_fuel:
                rt.low_fuel = fuel
            if arity == 0:
                eta1 = {"self": loc, "result": result}
            elif arity == 1:
                eta1 = {pars[0]: values[0], "self": loc, "result": result}
            else:
                eta1 = dict(zip(pars, values), self=loc, result=result)
            rt._stack.append(label)
            rt.steps += 1
            try:
                out = c(rt, h, eta1, fuel - 1)
            except _Stop as stop:
                if observe:
                    rt.hooks.after_call(gamma, start, store, stop.bottom, node, mscoped)
                raise
            finally:
                rt._stack.pop()
            if observe:
                rt.hooks.after_call(gamma, start, store, (h, out["result"]), node, mscoped)
            eta[name] = out["result"]
            return eta
        return call
    if t is A.LocalBlock:
        name, (kind, x), inner = node.name, operand(node.init), {**gamma, node.name: node.var_type}
        if observe or type(node.body) is not A.Seq:
            body, items = _child(node.body, inner, observe), None
        else:  # plain code runs the body's items in this frame, and calls nothing for a `skip`
            body, items = None, [None if type(i) is A.Skip else _compile(i, inner) for i in node.body.items]
        def local_block(rt, h, eta, fuel):
            shadowed = eta.get(name, _ABSENT)
            eta[name] = x if kind == "lit" else eta[x] if kind == "var" else x(rt, h, eta)
            rt.steps += 1
            if items is None:
                body(rt, h, eta, fuel)
            else:
                for c in items:
                    rt.steps += 1
                    if c is not None:
                        c(rt, h, eta, fuel)
            if shadowed is _ABSENT:
                del eta[name]
            else:
                eta[name] = shadowed  # restore the shadowed variable
            return eta
        return local_block
    if t is A.If:
        cond = _compile(node.cond)
        then, otherwise = _child(node.then_cmd, gamma, observe), _child(node.else_cmd, gamma, observe)
        def if_(rt, h, eta, fuel):
            c = then if cond(rt, h, eta) else otherwise
            rt.steps += 1
            return c(rt, h, eta, fuel)
        return if_
    if t is A.While:
        cond, c = _compile(node.cond), _child(node.body, gamma, observe)
        def while_(rt, h, eta, fuel):
            iterations = 0
            while cond(rt, h, eta):
                iterations += 1
                if iterations > rt.loop_cap:
                    raise rt._stop(FUEL_EXHAUSTED, "loop iteration cap exceeded")
                rt.steps += 1
                eta = c(rt, h, eta, fuel)
            return eta
        return while_
    if t is A.Seq:
        items = [None if type(i) is A.Skip and not observe else _child(i, gamma, observe) for i in node.items]
        def seq(rt, h, eta, fuel):
            for c in items:
                rt.steps += 1
                if c is not None:  # plain code calls nothing for a `skip`
                    eta = c(rt, h, eta, fuel)
            return eta
        return seq
    raise TypeError(f"not a core command or expression: {node!r}")


def run(
    ct: ClassTable,
    entry_class: str,
    entry_method: str,
    max_fuel: int = MAX_FUEL,
    loop_cap: int = LOOP_CAP,
    hooks: Optional[InterpHooks] = None,
) -> RunResult:
    """Construct one entry object and execute the entry method body once, at
    `max_fuel`, as the program command. The reported fuel is the least of 1,
    2, 4, ..., `max_fuel` at which the execution is the same; a fuel bottom in
    the body is reported at `max_fuel`."""
    if entry_class not in ct.decls:
        raise EntryClassError(f"unknown entry class {entry_class}")
    if ct.designations is not None and not ct.is_client_class(entry_class):
        raise EntryClassError(f"entry class {entry_class} must be a client class")
    resolved = ct.resolve_method(entry_method, entry_class)
    if resolved is None:
        raise EntryClassError(f"{entry_class} has no method {entry_method}")
    decl_class, m = resolved
    if m.params:
        raise EntryClassError(f"entry method {entry_method} must take no parameters")

    rt = Runtime(ct, loop_cap=loop_cap, hooks=hooks)
    out = rt.new_object(entry_class, {})
    if not isinstance(out, Bottom):
        h, loc = out
        eta = {"self": loc, "result": default_value(m.return_type)}
        try:  # h is the heap new_object made for this entry; run on it, cursors intact
            out = h, rt._exec_command(A.method_context(decl_class, m), m.body, h, eta, max_fuel)
        except _Stop as stop:
            out = stop.bottom
            if out.is_fuel():
                return RunResult(out, max_fuel, steps=rt.steps)
    # a call that ran at fuel j is nested max_fuel - j + 1 deep; constructor calls never run
    need, fuel = max_fuel - rt.low_fuel + 1, 1
    while fuel < need:
        fuel *= 2
    return RunResult(out, min(fuel, max_fuel), steps=rt.steps)


def format_state(h: Heap, eta: Store) -> str:
    """Deterministic listing of a (collected) state: store first, then objects
    in breadth-first order from the store (referents after referrers), any
    unreachable leftovers last."""
    lines = []
    for name in sorted(eta):
        lines.append(f"{name} = {_fmt_value(eta[name])}")
    order, seen = [], set()
    queue = deque(v for x in sorted(eta) for v in [eta[x]] if isinstance(v, Location))
    while queue:
        loc = queue.popleft()
        if loc in seen or loc not in h:
            continue
        seen.add(loc)
        order.append(loc)
        queue.extend(v for v in h[loc].values() if isinstance(v, Location))
    order.extend(loc for loc in sorted(h) if loc not in seen)
    for loc in order:
        fields = ", ".join(f"{f} = {_fmt_value(v)}" for f, v in h[loc].items())
        lines.append(f"{loc}: {{{fields}}}")
    return "\n".join(lines)


def _fmt_value(v) -> str:
    if v is None:
        return "null"
    if type(v) is bool:
        return "true" if v else "false"
    return repr(v)


def state_digest(h: Heap, eta: Store) -> str:
    import hashlib  # here, not at module level: it loads OpenSSL, ~4 MB resident, for traces only

    blob = repr(sorted((str(k), sorted((f, str(v)) for f, v in s.items())) for k, s in h.items()))
    blob += repr(sorted((k, str(v)) for k, v in eta.items()))
    return hashlib.sha1(blob.encode()).hexdigest()[:12]
