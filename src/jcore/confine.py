"""Ownership confinement: heap partitioning, store checks, and the monitor.

A confined heap splits into a client block plus islands, each one owner with
its reps, such that clients never point to reps, owners reach reps only
through the owner class's own private fields and only within their island,
and reps never point into foreign islands. Partitions are not unique: a rep
component with no forcing edge may sit in any island. The decision procedure
therefore returns the canonical forced partition (owner-attached components)
together with the set of flexible rep locations; checks that quantify over
partitions resolve the flexible reps in whatever way satisfies them.

`confine_heap` decides a heap from scratch and is the spec. The dynamic
monitor follows the forced partition of the running heap instead, one
allocation or field write at a time: one rule follows each edge that comes
or goes, checking one that comes against the clauses it touches, and a
change it cannot follow (a removed rep->rep edge, or any failed check)
drops the followed state. While it is dropped, checkpoints ask
`confine_heap`, which gives the canonical violation, and the state is
rebuilt once the heap is confined again. The extension check at a call's
return reads a log of forced-owner changes instead of a partition taken
before the call.

Each owner has one island, so an island is named by its owner. Both the
spec's Partition and the followed state answer one lookup, `forced_owner`:
the owner a rep is forced to, or None for a flexible rep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from . import ast as A
from .classtable import ClassTable
from .interp import (
    LOOP_CAP, MAX_FUEL, Bottom, Heap, InterpHooks, Location, RunResult, Store, run,
)

CLIENT_TO_REP = "ClientToRep"
SHARED_REP = "SharedRep"
NON_PRIVATE_OWNER_EDGE = "NonPrivateOwnerEdge"
REP_ESCAPES_ISLAND = "RepEscapesIsland"
REP_WITHOUT_OWNER = "RepWithoutOwner"
STORE_VIOLATION = "StoreViolation"
EXTENSION_VIOLATION = "ExtensionViolation"
RESULT_VIOLATION = "ResultViolation"


@A.record
class ConfinementViolation(A.Record):
    kind: str
    message: str
    witness: Tuple = ()
    context: str = ""

    def render(self) -> str:
        ctx = f" [{self.context}]" if self.context else ""
        return f"{self.kind}: {self.message}{ctx}"


@A.record
class Partition(A.Record):
    """Canonical confining partition: forced islands plus flexible reps."""

    islands: List[Tuple[Location, frozenset]]  # (owner, forced reps), owner-sorted
    clients: frozenset
    flexible: frozenset

    def forced_owner(self, rep: Location) -> Optional[Location]:
        """The owner whose island `rep` is forced into; None for a flexible rep."""
        for o, reps in self.islands:
            if rep in reps:
                return o
        return None


class _UnionFind:
    """Union by size with path halving; each root lists the members of its group."""

    def __init__(self):
        self.parent: Dict[Location, Location] = {}
        self.members: Dict[Location, List[Location]] = {}

    def add(self, x):
        self.parent[x] = x
        self.members[x] = [x]

    def find(self, x):
        parent = self.parent  # a root is stored as its own parent, the very same object
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        """Merge the groups of `a` and `b`; returns (kept root, absorbed root),
        one root twice when they were one group. A kept root's earlier members
        stay first in its list."""
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            if len(self.members[ra]) < len(self.members[rb]):
                ra, rb = rb, ra
            self.parent[rb] = ra
            self.members[ra].extend(self.members.pop(rb))
        return ra, rb


def confine_heap(ct: ClassTable, h: Heap):
    """Decide confinement of `h`; returns a Partition or the violation
    falsified by every admissible partition."""
    assert ct.designations is not None, "confinement requires owner/rep designations"
    own = ct.designations.own
    private = {f for f, _ in ct.dfields(own)}

    owners, reps, clients = [], [], []
    for loc in sorted(h):
        role = ct.role(loc.class_name)
        (owners if role == "owner" else reps if role == "rep" else clients).append(loc)

    # clause: clients do not point to reps
    for c in clients:
        for f, v in h[c].items():
            if isinstance(v, Location) and ct.role(v.class_name) == "rep":
                return ConfinementViolation(
                    CLIENT_TO_REP, f"client {c} points to rep {v} via field {f}", (c, f, v)
                )

    uf = _UnionFind()
    for r in reps:
        uf.add(r)
    for r in reps:
        for f, v in h[r].items():
            if isinstance(v, Location) and ct.role(v.class_name) == "rep":
                uf.union(r, v)

    # attachments: component root -> owner plus a witness edge
    attach: Dict[Location, Tuple[Location, Tuple, str]] = {}

    def attach_component(root, owner, edge, how):
        prev = attach.get(root)
        if prev is not None and prev[0] != owner:
            kind = SHARED_REP if prev[2] == "owner-edge" and how == "owner-edge" else REP_ESCAPES_ISLAND
            return ConfinementViolation(
                kind,
                f"rep component is tied to both owner {prev[0]} and owner {owner}",
                (prev[1], edge),
            )
        attach[root] = (owner, edge, how)
        return None

    for o in owners:
        for f, v in h[o].items():
            if isinstance(v, Location) and ct.role(v.class_name) == "rep":
                if f not in private:
                    return ConfinementViolation(
                        NON_PRIVATE_OWNER_EDGE,
                        f"owner {o} points to rep {v} via field {f}, which is not a private field of {own}",
                        (o, f, v),
                    )
                bad = attach_component(uf.find(v), o, (o, f, v), "owner-edge")
                if bad:
                    return bad
    for r in reps:
        for f, v in h[r].items():
            if isinstance(v, Location) and ct.role(v.class_name) == "owner":
                bad = attach_component(uf.find(r), v, (r, f, v), "rep-edge")
                if bad:
                    return bad

    forced: Dict[Location, Set[Location]] = {o: set() for o in owners}
    flexible: Set[Location] = set()
    for r in reps:
        root = uf.find(r)
        if root in attach:
            forced[attach[root][0]].add(r)
        else:
            flexible.add(r)
    if flexible and not owners:
        return ConfinementViolation(
            REP_WITHOUT_OWNER,
            f"reps {sorted(flexible)} exist but the heap has no owner to hold them",
            tuple(sorted(flexible)),
        )

    islands = [(o, frozenset(forced[o])) for o in owners]
    return Partition(islands, frozenset(clients), frozenset(flexible))


def confined_store(ct: ClassTable, class_name: str, eta: Store, partition: Partition):
    """Check store confinement for code of `class_name`; None means ok."""
    code = ct.role(class_name)
    owners: Set[Location] = set()
    witnesses = []
    for x in sorted(eta):
        v = eta[x]
        if not isinstance(v, Location):
            continue
        role = ct.role(v.class_name)
        o = v if role == "owner" else partition.forced_owner(v) if role == "rep" else None
        if code == "client" and role == "rep":
            return ConfinementViolation(
                STORE_VIOLATION, f"client store of {class_name} holds rep {v} in {x}", (x, v)
            )
        if code == "owner" and role == "rep" and o not in (None, eta.get("self")):
            return ConfinementViolation(
                STORE_VIOLATION,
                f"owner store of {class_name} holds rep {v} from a foreign island in {x}",
                (x, v),
            )
        if code == "rep" and o is not None:  # every owner or forced rep in range names one owner, self's own
            owners.add(o)
            witnesses.append((x, v))
    if len(owners) > 1:
        return ConfinementViolation(
            STORE_VIOLATION,
            f"rep store of {class_name} reaches into several islands via {witnesses}",
            tuple(witnesses),
        )
    return None


def check_hext(ct: ClassTable, pre: Partition, h_post: Heap):
    """Extension check: blocks of the pre partition may only grow."""
    post = confine_heap(ct, h_post)
    if isinstance(post, ConfinementViolation):
        return post
    if not (pre.clients <= post.clients):
        gone = sorted(pre.clients - post.clients)
        return ConfinementViolation(EXTENSION_VIOLATION, f"client block shrank, lost {gone}", tuple(gone))
    post_owners = {o for o, _ in post.islands}
    for o, forced in pre.islands:
        if o not in post_owners:
            return ConfinementViolation(EXTENSION_VIOLATION, f"island of owner {o} vanished", (o,))
        for r in sorted(forced):
            if r not in h_post:
                return ConfinementViolation(EXTENSION_VIOLATION, f"rep {r} vanished from the heap", (r,))
            now = post.forced_owner(r)
            if now not in (None, o):
                return _rep_moved(r, o, now)
    return None


def _rep_moved(rep: Location, was: Location, now: Location) -> ConfinementViolation:
    return ConfinementViolation(
        EXTENSION_VIOLATION, f"rep {rep} moved from the island of {was} to the island of {now}", (rep, was, now)
    )


# ---------------------------------------------------------------------------
# Dynamic monitor


class _Islands:
    """The forced partition of a confined heap, followed one change at a time.

    A union-find over rep->rep edges, which ignores their direction, groups
    the reps. A group root may carry one owner and the number of forcing
    edges between them (owner->rep through a private field, rep->owner): the
    group's reps are that owner's forced reps. The reps of an untied group
    are flexible. Like a Partition, it answers `forced_owner`, the one lookup
    of `confined_store` and the monitor's checks.
    """

    def __init__(self, ct: ClassTable):
        self.role = ct.role
        self.private = {f for f, _ in ct.dfields(ct.designations.own)}
        self.groups = _UnionFind()
        self.tie: Dict[Location, Tuple[Location, int]] = {}  # group root -> (owner, forcing edges)
        self.owners = 0

    @classmethod
    def of(cls, ct: ClassTable, h: Heap) -> "_Islands":
        """Replay a heap `confine_heap` accepted: objects, owners first, then edges."""
        isl = cls(ct)
        ok = all(isl.alloc(loc) for loc in sorted(h, key=lambda l: isl.role(l.class_name) == "rep")) and all(
            isl.edge(loc, f, v, 1) for loc, state in h.items() for f, v in state.items() if isinstance(v, Location)
        )
        assert ok, "confine_heap accepted a heap the followed partition rejects"
        return isl

    def forced_owner(self, rep: Location) -> Optional[Location]:
        tie = self.tie.get(self.groups.find(rep))
        return tie[0] if tie else None

    def forced(self) -> Dict[Location, Location]:
        """Each forced rep with its owner."""
        return {m: tie[0] for root, tie in self.tie.items() for m in self.groups.members[root]}

    # Each change returns False, having changed nothing, when the heap it
    # leads to may not be confined.

    def alloc(self, loc: Location) -> bool:
        role = self.role(loc.class_name)
        if role == "owner":
            self.owners += 1
        elif role == "rep":
            if not self.owners:
                return False
            self.groups.add(loc)
        return True

    def edge(self, src: Location, f: str, dst: Location, delta: int) -> bool:
        """Follow the edge `src.f -> dst` as it comes (`delta` 1) or goes (-1)."""
        rs, rd = self.role(src.class_name), self.role(dst.class_name)
        if rd == "rep":
            if rs == "rep":
                return delta > 0 and self._union(src, dst)  # a going edge may split the group
            # no client->rep or non-private owner->rep edge is in a followed heap, so none goes
            return rs == "owner" and f in self.private and self._tie(dst, src, delta)
        if rs == "rep" and rd == "owner":
            return self._tie(src, dst, delta)
        return True

    def write(self, loc: Location, f: str, old, new, log: Optional[list]) -> bool:
        """Follow `loc.f := new` over `old`: the old edge goes, then the new
        one comes. On False the state is as after the part that passed. Unless
        `log` is None, appends (rep, forced owner before) for each rep whose
        forced owner the write changed, net of both parts."""
        role = self.role
        touched = {}
        for x in (loc, old, new):
            if isinstance(x, Location) and role(x.class_name) == "rep":
                root = self.groups.find(x)
                if root not in touched:
                    members = self.groups.members[root]
                    touched[root] = (members, len(members), self.forced_owner(x))
        ok = (not isinstance(old, Location) or self.edge(loc, f, old, -1)) and (
            not isinstance(new, Location) or self.edge(loc, f, new, 1)
        )
        if log is not None:
            for members, n, was in touched.values():
                if self.forced_owner(members[0]) != was:
                    log.extend((m, was) for m in members[:n])
        return ok

    def _tie(self, rep: Location, owner: Location, delta: int) -> bool:
        root = self.groups.find(rep)
        tie = self.tie.get(root)
        if tie is None:
            self.tie[root] = (owner, delta)
        elif tie[0] != owner:
            return False
        elif tie[1] + delta:
            self.tie[root] = (owner, tie[1] + delta)
        else:
            del self.tie[root]
        return True

    def _union(self, a: Location, b: Location) -> bool:
        ta, tb = self.tie.get(self.groups.find(a)), self.tie.get(self.groups.find(b))
        if ta and tb and ta[0] != tb[0]:
            return False
        keep, gone = self.groups.union(a, b)
        if keep is not gone:
            self.tie.pop(gone, None)
            if ta or tb:
                self.tie[keep] = ((ta or tb)[0], (ta[1] if ta else 0) + (tb[1] if tb else 0))
        return True


# Each checkpoint's context in a violation, phrased with a span and without one.
_AFTER_COMMAND = ("after command at", "after command")
_CALL_ARGUMENTS = ("arguments of call at", "call arguments")
_CALL_RETURN = ("return of call at", "call return")


class ConfinementMonitor(InterpHooks):
    """Observes an execution and collects confinement violations: post-command
    state confinement, confined call arguments, method-result confinement
    (with the module-scope relaxation), and partition extension per call.

    It follows the forced partition of the running heap through `after_alloc`
    and `before_write` and calls `confine_heap` only on a heap it has not
    followed or one a change left possibly unconfined."""

    def __init__(self, ct: ClassTable, checkpoints: str = "every"):
        assert checkpoints in ("calls", "every")
        self.ct = ct
        self.checkpoints = checkpoints
        self.violations: List[ConfinementViolation] = []
        self._seen = set()
        self._heap: Optional[Heap] = None  # the running heap the next four describe
        self._islands: Optional[_Islands] = None  # its followed partition, None while dropped
        self._verdict = None  # while dropped: confine_heap's verdict, until the next change
        self._last: Optional[_Islands] = None  # while dropped: the state last followed
        # (rep, forced owner before) for each change of a rep's forced owner while a call is open
        self._log: List[Tuple[Location, Optional[Location]]] = []
        # one per open call: its log position, None when its heap was not confined
        self._marks: List[Optional[int]] = []

    def _record(self, v: Optional[ConfinementViolation], where: Tuple[str, str], span):
        """Keep `v` if it is new, with its context: the checkpoint `where`
        phrased at `span` (`where[0]`) or, with no span, as `where[1]`."""
        if v is None:
            return
        key = (v.kind, v.message)
        if key in self._seen:
            return
        self._seen.add(key)
        context = f"{where[0]} {span}" if span else where[1]
        self.violations.append(ConfinementViolation(v.kind, v.message, v.witness, context))

    # -- following the running heap

    def _track(self, h: Heap):
        self._heap, self._islands, self._verdict, self._last = h, None, None, None

    def _drop(self):
        self._last, self._islands, self._verdict = self._islands, None, None

    def _following(self, heap: Heap) -> Optional[_Islands]:
        """Note a change to `heap`: the followed state, None while dropped."""
        if heap is not self._heap:
            self._track(heap)
        self._verdict = None
        return self._islands

    def after_alloc(self, heap, loc):
        isl = self._following(heap)
        if isl is not None and not isl.alloc(loc):
            self._drop()

    def before_write(self, heap, loc, fieldname, value):
        old = heap[loc][fieldname]
        if not (isinstance(old, Location) or isinstance(value, Location)) or old == value:
            return  # no edge changes
        isl = self._following(heap)
        if isl is not None and not isl.write(loc, fieldname, old, value, self._log if self._marks else None):
            self._drop()

    def partition(self, h: Heap):
        """The followed partition of `h`, or the violation `confine_heap`
        reports for it."""
        if h is not self._heap:
            self._track(h)
        if self._islands is not None:
            return self._islands
        if self._verdict is None:
            self._verdict = confine_heap(self.ct, h)
        if isinstance(self._verdict, ConfinementViolation):
            return self._verdict
        isl = _Islands.of(self.ct, h)
        if self._last is not None:
            was, now = self._last.forced(), isl.forced()
            self._log.extend((r, was.get(r)) for r in self._last.groups.parent if was.get(r) != now.get(r))
        self._islands, self._verdict, self._last = isl, None, None
        return isl

    def _moved(self, mark: int, part: _Islands) -> Optional[ConfinementViolation]:
        """check_hext's verdict on the call opened at log position `mark`. The
        heap only grows and roles are fixed, so only a forced rep that now sits
        with another owner fails it; check_hext reports the least
        (owner before, rep)."""
        before = {}
        for rep, was in self._log[mark:]:
            before.setdefault(rep, was)
        moved = [
            (was, rep) for rep, was in before.items()
            if was is not None and part.forced_owner(rep) not in (None, was)
        ]
        if not moved:
            return None
        was, rep = min(moved)
        return _rep_moved(rep, was, part.forced_owner(rep))

    # -- checkpoints

    def _check_state(self, class_name: str, eta: Store, h: Heap, where, span, mark: Optional[int] = None):
        part = self.partition(h)
        if isinstance(part, ConfinementViolation):
            self._record(part, where, span)
            return None
        if mark is not None:
            self._record(self._moved(mark, part), where, span)
        self._record(confined_store(self.ct, class_name, eta, part), where, span)
        return part

    def after_command(self, gamma, cmd, outcome):
        if self.checkpoints != "every" or isinstance(outcome, Bottom):
            return
        if isinstance(cmd, (A.Seq, A.If, A.While)):
            return  # constituents are already checked
        h0, eta0 = outcome
        self._check_state(gamma["self"].name, eta0, h0, _AFTER_COMMAND, cmd.span)

    def before_call(self, caller_gamma, callee_class, callee_store, heap, site, mscoped):
        part = self._check_state(callee_class, callee_store, heap, _CALL_ARGUMENTS, site.span)
        if not self._marks:
            self._log.clear()
        self._marks.append(None if part is None else len(self._log))

    def after_call(self, caller_gamma, callee_class, callee_store, outcome, site, mscoped):
        mark = self._marks.pop()
        if isinstance(outcome, Bottom):
            return
        h0, d = outcome
        ct = self.ct
        # No extension check (mark None) when before_call already recorded the pre-call heap.
        part = self._check_state(callee_class, callee_store, h0, _CALL_RETURN, site.span, mark)
        if part is None or not isinstance(d, Location):
            return
        role, drole = ct.role(callee_class), ct.role(d.class_name)
        if role == "rep":
            if drole != "client":
                probe = {**callee_store, "$result": d}
                self._record(confined_store(ct, callee_class, probe, part), _CALL_RETURN, site.span)
            return
        if drole != "rep":
            return
        if role == "owner" and mscoped:
            if part.forced_owner(d) in (None, callee_store.get("self")):
                return
            message = f"module-scoped {site.method} returns rep {d} from a foreign island"
        else:
            message = f"method {site.method} of {callee_class} returns rep {d}"
        self._record(ConfinementViolation(RESULT_VIOLATION, message, (d,)), _CALL_RETURN, site.span)


def run_with_monitor(
    ct: ClassTable,
    entry_class: str,
    entry_method: str,
    max_fuel: int = MAX_FUEL,
    loop_cap: int = LOOP_CAP,
    checkpoints: str = "every",
) -> Tuple[RunResult, List[ConfinementViolation]]:
    monitor = ConfinementMonitor(ct, checkpoints)
    result = run(ct, entry_class, entry_method, max_fuel=max_fuel, loop_cap=loop_cap, hooks=monitor)
    return result, monitor.violations


# ---------------------------------------------------------------------------
# Visualization


def to_dot(h: Heap, partition: Partition) -> str:
    """Deterministic DOT rendering: one cluster per island, one for clients."""
    clusters = [
        (f"island_{i}", f"island {i}", "dashed", [owner, *sorted(reps)])
        for i, (owner, reps) in enumerate(partition.islands)
    ]
    if partition.clients:
        clusters.append(("clients", "clients", "dashed", sorted(partition.clients)))
    if partition.flexible:
        clusters.append(("unplaced", "unplaced reps", "dotted", sorted(partition.flexible)))
    lines = ["digraph heap {", "  node [shape=box];"]
    for name, label, style, locs in clusters:
        lines += [f"  subgraph cluster_{name} {{", f'    label="{label}";', f"    style={style};"]
        lines += [f'    "{loc}";' for loc in locs]
        lines.append("  }")
    for loc in sorted(h):
        for f, v in h[loc].items():
            if isinstance(v, Location):
                lines.append(f'  "{loc}" -> "{v}" [label="{f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
