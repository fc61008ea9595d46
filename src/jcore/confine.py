"""Ownership confinement: heap partitioning, store checks, and the monitor.

A confined heap splits into a client block plus islands, each one owner with
its reps, such that clients never point to reps, owners reach reps only
through the owner class's own private fields and only within their island,
and reps never point into foreign islands. Partitions are not unique: a rep
component with no forcing edge may sit in any island. The decision procedure
therefore returns the canonical forced partition (owner-attached components)
together with the set of flexible rep locations; checks that quantify over
partitions resolve the flexible reps in whatever way satisfies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from . import ast as A
from .classtable import ClassTable
from .interp import (
    Bottom, Heap, InterpHooks, Location, RunResult, Store, run,
)

CLIENT_TO_REP = "ClientToRep"
SHARED_REP = "SharedRep"
NON_PRIVATE_OWNER_EDGE = "NonPrivateOwnerEdge"
REP_ESCAPES_ISLAND = "RepEscapesIsland"
REP_WITHOUT_OWNER = "RepWithoutOwner"
STORE_VIOLATION = "StoreViolation"
EXTENSION_VIOLATION = "ExtensionViolation"
RESULT_VIOLATION = "ResultViolation"


@dataclass(frozen=True)
class ConfinementViolation:
    kind: str
    message: str
    witness: Tuple = ()
    context: str = ""

    def render(self) -> str:
        ctx = f" [{self.context}]" if self.context else ""
        return f"{self.kind}: {self.message}{ctx}"


@dataclass
class Partition:
    """Canonical confining partition: forced islands plus flexible reps."""

    islands: List[Tuple[Location, frozenset]]  # (owner, forced reps), owner-sorted
    clients: frozenset
    flexible: frozenset

    def owner_index(self, owner: Location) -> Optional[int]:
        for i, (o, _) in enumerate(self.islands):
            if o == owner:
                return i
        return None

    def forced_island_of(self, rep: Location) -> Optional[int]:
        for i, (_, reps) in enumerate(self.islands):
            if rep in reps:
                return i
        return None

    def block_count(self) -> int:
        return len(self.islands)


def role_of(ct: ClassTable, loc: Location) -> str:
    if ct.is_owner_class(loc.class_name):
        return "owner"
    if ct.is_rep_class(loc.class_name):
        return "rep"
    return "client"


class _UnionFind:
    def __init__(self):
        self.parent: Dict[Location, Location] = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def confine_heap(ct: ClassTable, h: Heap):
    """Decide confinement of `h`; returns a Partition or the violation
    falsified by every admissible partition."""
    assert ct.designations is not None, "confinement requires owner/rep designations"
    own = ct.designations.own
    private = {f for f, _ in ct.dfields(own)}

    owners, reps, clients = [], [], []
    for loc in sorted(h):
        role = role_of(ct, loc)
        (owners if role == "owner" else reps if role == "rep" else clients).append(loc)

    # clause: clients do not point to reps
    for c in clients:
        for f, v in h[c].items():
            if isinstance(v, Location) and role_of(ct, v) == "rep":
                return ConfinementViolation(
                    CLIENT_TO_REP, f"client {c} points to rep {v} via field {f}", (c, f, v)
                )

    uf = _UnionFind()
    for r in reps:
        uf.add(r)
    for r in reps:
        for f, v in h[r].items():
            if isinstance(v, Location) and role_of(ct, v) == "rep":
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
            if isinstance(v, Location) and role_of(ct, v) == "rep":
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
            if isinstance(v, Location) and role_of(ct, v) == "owner":
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


def partition_clauses_hold(ct: ClassTable, h: Heap, assignment: Dict[Location, int], owners: List[Location]) -> bool:
    """Check the four confinement clauses for an explicit rep->island map.
    Used by the brute-force oracle and the soundness assertions."""
    own = ct.designations.own
    private = {f for f, _ in ct.dfields(own)}
    island_of = dict(assignment)
    for i, o in enumerate(owners):
        island_of[o] = i
    for loc in h:
        role = role_of(ct, loc)
        for f, v in h[loc].items():
            if not isinstance(v, Location):
                continue
            vrole = role_of(ct, v)
            if role == "client" and vrole == "rep":
                return False
            if role == "owner" and vrole == "rep":
                if island_of[v] != island_of[loc] or f not in private:
                    return False
            if role == "rep" and vrole in ("rep", "owner"):
                if island_of[v] != island_of[loc]:
                    return False
    return True


def confined_store(ct: ClassTable, class_name: str, eta: Store, h: Heap, partition: Partition):
    """Check store confinement for code of `class_name`; None means ok."""
    if ct.is_client_class(class_name):
        for x in sorted(eta):
            v = eta[x]
            if isinstance(v, Location) and role_of(ct, v) == "rep":
                return ConfinementViolation(
                    STORE_VIOLATION, f"client store of {class_name} holds rep {v} in {x}", (x, v)
                )
        return None
    self_loc = eta.get("self")
    if ct.is_owner_class(class_name):
        j = partition.owner_index(self_loc)
        for x in sorted(eta):
            v = eta[x]
            if isinstance(v, Location) and role_of(ct, v) == "rep":
                k = partition.forced_island_of(v)
                if k is not None and k != j:
                    return ConfinementViolation(
                        STORE_VIOLATION,
                        f"owner store of {class_name} holds rep {v} from a foreign island in {x}",
                        (x, v),
                    )
        return None
    # rep code: every owner or rep in range must fit one island, self's own
    constraints: Set[int] = set()
    witnesses = []
    for x in sorted(eta):
        v = eta[x]
        if not isinstance(v, Location):
            continue
        r = role_of(ct, v)
        if r == "owner":
            constraints.add(partition.owner_index(v))
            witnesses.append((x, v))
        elif r == "rep":
            k = partition.forced_island_of(v)
            if k is not None:
                constraints.add(k)
                witnesses.append((x, v))
    if len(constraints) > 1:
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
        return ConfinementViolation(
            EXTENSION_VIOLATION, f"client block shrank, lost {gone}", tuple(gone)
        )
    post_owner_idx = {o: i for i, (o, _) in enumerate(post.islands)}
    for o, forced in pre.islands:
        if o not in post_owner_idx:
            return ConfinementViolation(
                EXTENSION_VIOLATION, f"island of owner {o} vanished", (o,)
            )
        for r in sorted(forced):
            k = post.forced_island_of(r)
            if r not in h_post:
                return ConfinementViolation(
                    EXTENSION_VIOLATION, f"rep {r} vanished from the heap", (r,)
                )
            if k is not None and post.islands[k][0] != o:
                return ConfinementViolation(
                    EXTENSION_VIOLATION,
                    f"rep {r} moved from the island of {o} to the island of {post.islands[k][0]}",
                    (r, o, post.islands[k][0]),
                )
    if post.block_count() < pre.block_count():
        return ConfinementViolation(EXTENSION_VIOLATION, "island count decreased", ())
    return None


# ---------------------------------------------------------------------------
# Dynamic monitor


class ConfinementMonitor(InterpHooks):
    """Observes an execution and collects confinement violations: post-command
    state confinement, confined call arguments, method-result confinement
    (with the module-scope relaxation), and partition extension per call."""

    def __init__(self, ct: ClassTable, checkpoints: str = "every"):
        assert checkpoints in ("calls", "every")
        self.ct = ct
        self.checkpoints = checkpoints
        self.violations: List[ConfinementViolation] = []
        self._seen = set()
        # one per open call: the partition before_call built, None on a violation
        self._pre_parts: List[Optional[Partition]] = []

    def _record(self, v: Optional[ConfinementViolation], context: str):
        if v is None:
            return
        key = (v.kind, v.message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.violations.append(ConfinementViolation(v.kind, v.message, v.witness, context))

    def _check_state(self, class_name: str, eta: Store, h: Heap, context: str):
        part = confine_heap(self.ct, h)
        if isinstance(part, ConfinementViolation):
            self._record(part, context)
            return None
        self._record(confined_store(self.ct, class_name, eta, h, part), context)
        return part

    def after_command(self, gamma, cmd, outcome):
        if self.checkpoints != "every" or isinstance(outcome, Bottom):
            return
        if isinstance(cmd, (A.Seq, A.If, A.While)):
            return  # constituents are already checked
        h0, eta0 = outcome
        cls = gamma["self"].name
        at = f"after command at {cmd.span}" if cmd.span else "after command"
        self._check_state(cls, eta0, h0, at)

    def before_call(self, caller_gamma, callee_class, callee_store, heap, site, mscoped):
        at = f"arguments of call at {site.span}" if site.span else "call arguments"
        self._pre_parts.append(self._check_state(callee_class, callee_store, heap, at))

    def after_call(self, caller_gamma, callee_class, callee_store, outcome, site, mscoped):
        pre_part = self._pre_parts.pop()
        if isinstance(outcome, Bottom):
            return
        h0, d = outcome
        ct = self.ct
        at = f"return of call at {site.span}" if site.span else "call return"
        # A pre-call heap that is not confined was already recorded by before_call.
        if pre_part is not None:
            self._record(check_hext(ct, pre_part, h0), at)
        part = self._check_state(callee_class, callee_store, h0, at)
        if part is None or not isinstance(d, Location):
            return
        drole = role_of(ct, d)
        if ct.is_client_class(callee_class) or (ct.is_owner_class(callee_class) and not mscoped):
            if drole == "rep":
                self._record(
                    ConfinementViolation(
                        RESULT_VIOLATION,
                        f"method {site.method} of {callee_class} returns rep {d}",
                        (d,),
                    ),
                    at,
                )
        elif ct.is_owner_class(callee_class) and mscoped:
            if drole == "rep":
                j = part.owner_index(callee_store.get("self"))
                k = part.forced_island_of(d)
                if k is not None and k != j:
                    self._record(
                        ConfinementViolation(
                            RESULT_VIOLATION,
                            f"module-scoped {site.method} returns rep {d} from a foreign island",
                            (d,),
                        ),
                        at,
                    )
        else:  # rep code
            if drole in ("owner", "rep"):
                probe = dict(callee_store)
                probe["$result"] = d
                self._record(confined_store(ct, callee_class, probe, h0, part), at)


def run_with_monitor(
    ct: ClassTable,
    entry_class: str,
    entry_method: str,
    max_fuel: int = 1024,
    loop_cap: int = 100000,
    checkpoints: str = "every",
) -> Tuple[RunResult, List[ConfinementViolation]]:
    monitor = ConfinementMonitor(ct, checkpoints)
    result = run(ct, entry_class, entry_method, max_fuel=max_fuel, loop_cap=loop_cap, hooks=monitor)
    return result, monitor.violations


# ---------------------------------------------------------------------------
# Visualization


def to_dot(h: Heap, partition: Partition) -> str:
    """Deterministic DOT rendering: one cluster per island, one for clients."""
    lines = ["digraph heap {", "  node [shape=box];"]
    for i, (owner, reps) in enumerate(partition.islands):
        lines.append(f"  subgraph cluster_island_{i} {{")
        lines.append(f'    label="island {i}";')
        lines.append("    style=dashed;")
        for loc in [owner] + sorted(reps):
            lines.append(f'    "{loc}";')
        lines.append("  }")
    if partition.clients:
        lines.append("  subgraph cluster_clients {")
        lines.append('    label="clients";')
        lines.append("    style=dashed;")
        for loc in sorted(partition.clients):
            lines.append(f'    "{loc}";')
        lines.append("  }")
    if partition.flexible:
        lines.append("  subgraph cluster_unplaced {")
        lines.append('    label="unplaced reps";')
        lines.append("    style=dotted;")
        for loc in sorted(partition.flexible):
            lines.append(f'    "{loc}";')
        lines.append("  }")
    for loc in sorted(h):
        for f in h[loc]:
            v = h[loc][f]
            if isinstance(v, Location):
                lines.append(f'  "{loc}" -> "{v}" [label="{f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
