"""Definitional interpreter: heaps, stores, allocation, and method meanings.

A heap is a dict from locations to object states (dicts from field names to
values); a store is a dict from variables to values. The public API keeps the
paper's value semantics: each public `Runtime` entry (`invoke`, `new_object`,
`exec_constructor`, `exec_command`; `run` goes through `new_object`) copies
the caller's heap once, state dicts included, so the caller keeps a heap it
owns whatever the outcome. Inside an entry field writes and allocations
update that copy in place. A bottom is raised as an exception where it
arises and unwinds to the public entry, which returns it; nothing after it
runs, so no rollback is needed. Stores are still copied on update.

The heap of an entry only grows, so allocation resumes the least-index scan
of `fresh` from a per-class cursor that every public entry resets. It finds
the location `fresh` finds from 0, at amortised O(1) cost.

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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import ast as A
from .ast import OBJECT, BOOL, INT, UNIT, ClassType, NullType, PrimType
from .classtable import ClassTable

NIL_DEREF = "nil-dereference"
CAST_FAILURE = "cast-failure"
ABORT = "explicit-abort"
FUEL_EXHAUSTED = "fuel-exhausted"


class Unit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "it"


IT = Unit()


@dataclass(frozen=True, order=True, slots=True)
class Location:
    class_name: str
    index: int

    def __repr__(self):
        return f"{self.class_name}@{self.index}"


@dataclass(frozen=True)
class Bottom:
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
    if t == BOOL:
        return False
    if t == INT:
        return 0
    if t == UNIT:
        return IT
    return None


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
    ka, kb = value_kind(a), value_kind(b)
    if ka != kb:
        return False
    return a == b


def value_in_type(ct: ClassTable, v, t) -> bool:
    if isinstance(t, PrimType):
        return value_kind(v) == t.name
    if isinstance(t, NullType):
        return v is None
    if v is None:
        return True
    return isinstance(v, Location) and ct.subtype_names(v.class_name, t.name)


def heap_closed(h: Heap) -> bool:
    for state in h.values():
        for v in state.values():
            if isinstance(v, Location) and v not in h:
                return False
    return True


def store_closed(h: Heap, eta: Store) -> bool:
    return all(not isinstance(v, Location) or v in h for v in eta.values())


def heap_well_typed(ct: ClassTable, h: Heap) -> bool:
    for loc, state in h.items():
        fields = ct.fields(loc.class_name)
        if set(state) != {f for f, _ in fields}:
            return False
        for f, t in fields:
            if not value_in_type(ct, state[f], t):
                return False
    return True


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


@dataclass
class RunResult:
    outcome: object  # Bottom | (heap, store)
    fuel_used: int
    value: object = None
    steps: int = 0

    @property
    def ok(self) -> bool:
        return not isinstance(self.outcome, Bottom)


class _Stop(Exception):
    """A bottom unwinding to the public entry, which returns it."""

    def __init__(self, bottom: Bottom):
        self.bottom = bottom


class Runtime:
    def __init__(self, ct: ClassTable, loop_cap: int = 100000, hooks: Optional[InterpHooks] = None):
        self.ct = ct
        self.loop_cap = loop_cap
        self.hooks = hooks
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

    def exec_constructor(self, class_name: str, h: Heap, loc: Location):
        """Run the constructor chain of `class_name` on `loc`, root first."""
        return self._entry(h, lambda h: self._exec_constructor(class_name, h, loc))

    def invoke(self, loc: Location, mname: str, args, h: Heap, fuel: int, start_class: Optional[str] = None):
        return self._entry(h, lambda h: (h, self._invoke(loc, mname, args, h, fuel, start_class)))

    def exec_command(self, gamma, cmd, h: Heap, eta: Store, fuel: int):
        return self._entry(h, lambda h: (h, self._exec_command(gamma, cmd, h, eta, fuel)))

    def eval_expr(self, h: Heap, eta: Store, e):
        """Expressions write nothing, so this entry needs no heap copy."""
        try:
            return self._eval(h, eta, e)
        except _Stop as stop:
            return stop.bottom

    # Inside an entry the heap is updated in place: the steps below return
    # only the new store or value, and raise `_Stop` at a bottom.

    def _eval(self, h: Heap, eta: Store, e):
        ct = self.ct
        if isinstance(e, A.Var):
            return eta[e.name]
        if isinstance(e, A.NullLit):
            return None
        if isinstance(e, A.BoolLit):
            return e.value
        if isinstance(e, A.IntLit):
            return e.value
        if isinstance(e, A.UnitLit):
            return IT
        if isinstance(e, A.Eq):
            return values_equal(self._eval(h, eta, e.left), self._eval(h, eta, e.right))
        if isinstance(e, A.IntOp):
            d1, d2 = self._eval(h, eta, e.left), self._eval(h, eta, e.right)
            if e.op == "+":
                return d1 + d2
            if e.op == "-":
                return d1 - d2
            if e.op == "mod":
                return d1 % d2 if d2 != 0 else 0
            return d1 < d2
        if isinstance(e, A.FieldAccess):
            l = self._eval(h, eta, e.target)
            if l is None:
                raise self._stop(NIL_DEREF, f"field {e.fieldname} of null")
            assert l in h, "expression produced a dangling location"
            return h[l][e.fieldname]
        if isinstance(e, A.Cast):
            l = self._eval(h, eta, e.target)
            if l is None or ct.subtype_names(l.class_name, e.class_name):
                return l
            raise self._stop(CAST_FAILURE, f"{l.class_name} is not a {e.class_name}")
        if isinstance(e, A.InstanceTest):
            l = self._eval(h, eta, e.target)
            return l is not None and ct.subtype_names(l.class_name, e.class_name)
        raise TypeError(f"not a core expression: {e!r}")

    # -- construction

    def _new_object(self, class_name: str, h: Heap) -> Location:
        loc = fresh(class_name, h, self._next.get(class_name, 0))
        self._next[class_name] = loc.index + 1
        h[loc] = {f: default_value(t) for f, t in self.ct.fields(class_name)}
        if self.hooks:
            self.hooks.after_alloc(h, loc)
        self._exec_constructor(class_name, h, loc)
        return loc

    def _exec_constructor(self, class_name: str, h: Heap, loc: Location) -> Heap:
        sup = self.ct.super_of(class_name)
        if sup is not None and sup != OBJECT:
            self._exec_constructor(sup, h, loc)
        gamma = {"self": ClassType(class_name)}
        self._stack.append(f"{class_name}.con")
        try:
            self._exec_command(gamma, self.ct.decls[class_name].constructor, h, {"self": loc}, 0)
        finally:
            self._stack.pop()
        return h

    # -- method invocation (fuel j: body runs with fuel j-1)

    def _invoke(self, loc: Location, mname: str, args, h: Heap, fuel: int, start_class: Optional[str] = None):
        if fuel <= 0:
            raise self._stop(FUEL_EXHAUSTED, f"call to {mname}")
        if fuel < self.low_fuel:
            self.low_fuel = fuel
        start = start_class or loc.class_name
        resolved = self.ct.resolve_method(mname, start)
        assert resolved is not None, f"unresolvable method {mname} on {start}"
        decl_class, m = resolved
        eta = {x: v for (x, _), v in zip(m.params, args)}
        eta["self"] = loc
        eta["result"] = default_value(m.return_type)
        gamma = {x: t for x, t in m.params}
        gamma["self"] = ClassType(decl_class)
        gamma["result"] = m.return_type
        self._stack.append(f"{decl_class}.{mname}")
        try:
            return self._exec_command(gamma, m.body, h, eta, fuel - 1)["result"]
        finally:
            self._stack.pop()

    def _call(self, gamma, cmd, h, eta, fuel, loc, start_class, mscoped):
        args = [self._eval(h, eta, a) for a in cmd.args]
        if fuel <= 0:
            raise self._stop(FUEL_EXHAUSTED, f"call to {cmd.method}")
        if not self.hooks:
            return self._invoke(loc, cmd.method, args, h, fuel, start_class)
        callee_class = start_class or loc.class_name
        resolved = self.ct.resolve_method(cmd.method, callee_class)
        pars = [x for x, _ in resolved[1].params] if resolved else []
        callee_store = dict(zip(pars, args))
        callee_store["self"] = loc
        self.hooks.before_call(gamma, callee_class, callee_store, h, cmd, mscoped)
        try:
            d = self._invoke(loc, cmd.method, args, h, fuel, start_class)
        except _Stop as stop:
            self.hooks.after_call(gamma, callee_class, callee_store, stop.bottom, cmd, mscoped)
            raise
        self.hooks.after_call(gamma, callee_class, callee_store, (h, d), cmd, mscoped)
        return d

    # -- commands

    def _exec_command(self, gamma, cmd, h: Heap, eta: Store, fuel: int) -> Store:
        self.steps += 1
        if not self.hooks:
            return self._exec(gamma, cmd, h, eta, fuel)
        try:
            eta = self._exec(gamma, cmd, h, eta, fuel)
        except _Stop as stop:
            self.hooks.after_command(gamma, cmd, stop.bottom)
            raise
        self.hooks.after_command(gamma, cmd, (h, eta))
        return eta

    def _exec(self, gamma, cmd, h, eta, fuel):
        ct = self.ct
        if isinstance(cmd, A.Skip):
            return eta
        if isinstance(cmd, A.Abort):
            raise self._stop(ABORT)
        if isinstance(cmd, A.Assign):
            return {**eta, cmd.name: self._eval(h, eta, cmd.expr)}
        if isinstance(cmd, A.FieldAssign):
            l = self._eval(h, eta, cmd.target)
            if l is None:
                raise self._stop(NIL_DEREF, f"update of field {cmd.fieldname} of null")
            d = self._eval(h, eta, cmd.expr)
            if self.hooks:
                self.hooks.before_write(h, l, cmd.fieldname, d)
            h[l][cmd.fieldname] = d
            return eta
        if isinstance(cmd, A.NewAssign):
            return {**eta, cmd.name: self._new_object(cmd.class_name, h)}
        if isinstance(cmd, A.CallAssign):
            l = self._eval(h, eta, cmd.receiver)
            if l is None:
                raise self._stop(NIL_DEREF, f"call of {cmd.method} on null")
            d = self._call(gamma, cmd, h, eta, fuel, l, None, ct.mscope(cmd.method, l.class_name))
            return {**eta, cmd.name: d}
        if isinstance(cmd, A.SuperCallAssign):
            sup = ct.super_of(gamma["self"].name)
            d = self._call(gamma, cmd, h, eta, fuel, eta["self"], sup, ct.mscope(cmd.method, sup))
            return {**eta, cmd.name: d}
        if isinstance(cmd, A.LocalBlock):
            eta1 = {**eta, cmd.name: self._eval(h, eta, cmd.init)}
            gamma1 = {**gamma, cmd.name: cmd.var_type}
            out = dict(self._exec_command(gamma1, cmd.body, h, eta1, fuel))  # a hook may hold the body's store
            if cmd.name in eta:
                out[cmd.name] = eta[cmd.name]  # restore the shadowed variable
            else:
                del out[cmd.name]
            return out
        if isinstance(cmd, A.If):
            branch = cmd.then_cmd if self._eval(h, eta, cmd.cond) else cmd.else_cmd
            return self._exec_command(gamma, branch, h, eta, fuel)
        if isinstance(cmd, A.While):
            iterations = 0
            while self._eval(h, eta, cmd.cond):
                iterations += 1
                if iterations > self.loop_cap:
                    raise self._stop(FUEL_EXHAUSTED, "loop iteration cap exceeded")
                eta = self._exec_command(gamma, cmd.body, h, eta, fuel)
            return eta
        if isinstance(cmd, A.Seq):
            for it in cmd.items:
                eta = self._exec_command(gamma, it, h, eta, fuel)
            return eta
        raise TypeError(f"not a core command: {cmd!r}")


def run(
    ct: ClassTable,
    entry_class: str,
    entry_method: str,
    max_fuel: int = 1024,
    loop_cap: int = 100000,
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
        gamma = {"self": ClassType(decl_class), "result": m.return_type}
        eta = {"self": loc, "result": default_value(m.return_type)}
        try:  # h is the heap new_object made for this entry; run on it, cursors intact
            out = h, rt._exec_command(gamma, m.body, h, eta, max_fuel)
        except _Stop as stop:
            out = stop.bottom
            if out.is_fuel():
                return RunResult(out, max_fuel, steps=rt.steps)
    # a call that ran at fuel j is nested max_fuel - j + 1 deep; constructor calls never run
    need, fuel = max_fuel - rt.low_fuel + 1, 1
    while fuel < need:
        fuel *= 2
    return RunResult(out, min(fuel, max_fuel), steps=rt.steps)


def format_state(ct: ClassTable, h: Heap, eta: Store) -> str:
    """Deterministic listing of a (collected) state: store first, then objects
    in breadth-first order from the store (referents after referrers), any
    unreachable leftovers last."""
    lines = []
    for name in sorted(eta):
        lines.append(f"{name} = {_fmt_value(eta[name])}")
    order, seen = [], set()
    queue = [v for x in sorted(eta) for v in [eta[x]] if isinstance(v, Location)]
    while queue:
        loc = queue.pop(0)
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
    if v is IT:
        return "it"
    if type(v) is bool:
        return "true" if v else "false"
    return repr(v)


def state_digest(h: Heap, eta: Store) -> str:
    import hashlib  # here, not at module level: it loads OpenSSL, ~4 MB resident, for traces only

    blob = repr(sorted((str(k), sorted((f, str(v)) for f, v in s.items())) for k, s in h.items()))
    blob += repr(sorted((k, str(v)) for k, v in eta.items()))
    return hashlib.sha1(blob.encode()).hexdigest()[:12]
