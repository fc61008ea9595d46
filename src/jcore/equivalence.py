"""Program equivalence across two versions of the owner class.

Two tables are comparable when they agree on everything except the owner
class's declaration, with matching public (and subclass-visible module)
method signatures. Client equivalence runs the same entry program once
against each table at the budget, reports the larger of the two minimal
fuels, garbage-collects both finals, and decides equality of the collected
states up to a type-preserving location bijection, built by one
deterministic rooted traversal.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from . import ast as A
from .classtable import ClassTable, Designations, load_table
from .interp import LOOP_CAP, MAX_FUEL, Bottom, EntryClassError, Heap, Location, Store, collect, run, value_kind


class ComparabilityError(Exception):
    def __init__(self, problems: List[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def check_comparable(ct_a: ClassTable, ct_b: ClassTable) -> List[str]:
    """Return the list of comparability violations (empty means comparable)."""
    problems: List[str] = []
    if ct_a.designations != ct_b.designations or ct_a.designations is None:
        problems.append("the two tables must share owner/rep designations")
        return problems
    own = ct_a.designations.own
    names_a, names_b = set(ct_a.decls), set(ct_b.decls)
    for n in sorted(names_a ^ names_b):
        problems.append(f"class {n} is declared in only one table")
    for n in sorted(names_a & names_b):
        if n == own:
            continue
        if not A.same_tree(ct_a.decls[n], ct_b.decls[n]):
            problems.append(f"class {n} differs between the tables (only {own} may differ)")
    if own in names_a and own in names_b:
        if ct_a.super_of(own) != ct_b.super_of(own):
            problems.append(f"the two versions of {own} have different superclasses")
        meths = set(ct_a.method_names(own)) | set(ct_b.method_names(own))
        prot_a = {m for m, _ in ct_a.prot_methods()}
        prot_b = {m for m, _ in ct_b.prot_methods()}
        for m in sorted(meths):
            mt_a, mt_b = ct_a.mtype(m, own), ct_b.mtype(m, own)
            ms_a = ct_a.mscope(m, own) if mt_a else None
            ms_b = ct_b.mscope(m, own) if mt_b else None
            public_somewhere = (mt_a and not ms_a) or (mt_b and not ms_b)
            protected = m in prot_a or m in prot_b
            if public_somewhere:
                if mt_a is None or mt_b is None:
                    problems.append(f"public owner method {m} is missing from one table")
                elif mt_a != mt_b:
                    problems.append(f"public owner method {m} has different signatures")
                elif ms_a != ms_b:
                    problems.append(f"owner method {m} is module-scoped in only one table")
            elif protected:
                if mt_a is None or mt_b is None:
                    problems.append(f"subclass-visible module method {m} is missing from one table")
                elif mt_a != mt_b:
                    problems.append(f"subclass-visible module method {m} has different signatures")
                elif not (ms_a and ms_b):
                    problems.append(f"subclass-visible method {m} must be module-scoped in both tables")
    return problems


# ---------------------------------------------------------------------------
# Canonical typed bijection between two rooted states


@A.record
class Distinguished(A.Record):
    path: str
    message: str


def pair_reachable(
    roots_a: Store,
    roots_b: Store,
    h_a: Heap,
    h_b: Heap,
    fields_of: Callable[[Location], Iterable[str]],
):
    """Pair the values reachable from identically named roots into a
    type-preserving location bijection, breadth first: the roots in name
    order, then `fields_of(a)` in order for each newly paired location `a`.
    A location whose `fields_of` is empty is paired but not entered. Returns
    the bijection as a dict or a Distinguished witness holding the first
    mismatching access path."""
    sigma: Dict[Location, Location] = {}
    used = set()
    queue = deque()  # (a, b, access path) of pairs whose fields are still to follow

    def pair(a, b, path):
        ka, kb = value_kind(a), value_kind(b)
        if ka != kb:
            return Distinguished(path, f"{ka} vs {kb}")
        if ka in ("nil", "bool", "int", "unit"):
            if a != b:
                return Distinguished(path, f"{a!r} vs {b!r}")
            return None
        if a.class_name != b.class_name:
            return Distinguished(path, f"{a.class_name} vs {b.class_name}")
        if a in sigma:
            if sigma[a] != b:
                return Distinguished(path, f"{a} already paired with {sigma[a]}, not {b}")
            return None
        if b in used:
            return Distinguished(path, f"{b} already the partner of another location")
        sigma[a] = b
        used.add(b)
        queue.append((a, b, path))
        return None

    if set(roots_a) != set(roots_b):
        return Distinguished("<store>", "stores bind different variables")
    for x in sorted(roots_a):
        bad = pair(roots_a[x], roots_b[x], x)
        if bad:
            return bad
    while queue:
        a, b, path = queue.popleft()
        state_b = h_b[b]
        for f in fields_of(a):
            if f not in state_b:
                return Distinguished(f"{path}.{f}", "field missing on partner")
            bad = pair(h_a[a][f], state_b[f], f"{path}.{f}")
            if bad:
                return bad
    return sigma


def canonical_bijection(
    ct: ClassTable,
    state_a: Tuple[Heap, Store],
    state_b: Tuple[Heap, Store],
):
    """Build the type-preserving location bijection equating two collected
    states: `pair_reachable` from the stores through every field (declaration
    order), covering both heaps. Returns the bijection as a dict or a
    Distinguished witness."""
    h_a, eta_a = state_a
    h_b, eta_b = state_b
    out = pair_reachable(eta_a, eta_b, h_a, h_b, lambda loc: [f for f, _ in ct.fields(loc.class_name)])
    if isinstance(out, dict) and (len(out) != len(h_a) or len(out) != len(h_b)):
        return Distinguished("<domain>", "states differ in unreachable locations")
    return out


def value_equiv(sigma: Dict[Location, Location], a, b) -> bool:
    ka, kb = value_kind(a), value_kind(b)
    if ka != kb:
        return False
    if ka == "loc":
        return sigma.get(a) == b
    return a == b


def own_free(ct: ClassTable, h: Heap, eta: Store) -> bool:
    locs = list(h) + [v for v in eta.values() if isinstance(v, Location)]
    return not any(ct.is_owner_class(l.class_name) for l in locs)


# ---------------------------------------------------------------------------
# Client program equivalence


@A.record
class EquivVerdict(A.Record):
    kind: str  # 'equivalent' | 'distinguished' | 'owners-reachable' | 'inconclusive'
    fuel_used: int = 0
    sigma: Tuple[Tuple[Location, Location], ...] = ()
    witness: str = ""

    @property
    def equivalent(self) -> bool:
        return self.kind == "equivalent"

    def to_json(self) -> dict:
        return {
            "verdict": self.kind,
            "fuelUsed": self.fuel_used,
            "sigma": [[str(a), str(b)] for a, b in self.sigma],
            "witness": self.witness,
        }


def client_equiv(
    ct_a: ClassTable,
    ct_b: ClassTable,
    entry_class: str,
    entry_method: str,
    max_fuel: int = MAX_FUEL,
    loop_cap: int = LOOP_CAP,
) -> EquivVerdict:
    problems = check_comparable(ct_a, ct_b)
    if problems:
        raise ComparabilityError(problems)
    # `run` rejects an unknown entry class or method before either side executes
    if entry_class in ct_a.decls and not ct_a.is_client_class(entry_class):
        raise ComparabilityError([f"entry class {entry_class} must be a client class"])

    res_a = run(ct_a, entry_class, entry_method, max_fuel=max_fuel, loop_cap=loop_cap)
    res_b = run(ct_b, entry_class, entry_method, max_fuel=max_fuel, loop_cap=loop_cap)
    bot_a = res_a.outcome if isinstance(res_a.outcome, Bottom) else None
    bot_b = res_b.outcome if isinstance(res_b.outcome, Bottom) else None
    if (bot_a and bot_a.is_fuel()) or (bot_b and bot_b.is_fuel()):
        return EquivVerdict("inconclusive", max_fuel, witness="fuel exhausted on at least one side at the budget")
    fuel = max(res_a.fuel_used, res_b.fuel_used)  # the least fuel that determines both sides
    if bot_a and bot_b:
        return EquivVerdict("equivalent", fuel, witness=f"both bottom: {bot_a.reason} / {bot_b.reason}")
    if bot_a or bot_b:
        return EquivVerdict(
            "distinguished", fuel,
            witness=f"one side bottoms ({(bot_a or bot_b).reason}), the other terminates",
        )
    ha, ea = collect(*res_a.outcome)
    hb, eb = collect(*res_b.outcome)
    if not own_free(ct_a, ha, ea) or not own_free(ct_b, hb, eb):
        return EquivVerdict("owners-reachable", fuel, witness="an owner is reachable in a collected final state")
    out = canonical_bijection(ct_a, (ha, ea), (hb, eb))
    if isinstance(out, Distinguished):
        return EquivVerdict("distinguished", fuel, witness=f"{out.path}: {out.message}")
    return EquivVerdict("equivalent", fuel, sigma=tuple(sorted(out.items())))


# ---------------------------------------------------------------------------
# Manifests

# the simulation harness's defaults: fuels per script, script length, scripts per owner class
FUELS, MAX_LEN, MAX_SCRIPTS = (1, 2, 4, 8), 4, 120


class ManifestError(Exception):
    """A manifest that is not a JSON object, lacks a key its comparison
    needs, has a value of the wrong kind, or names an unknown coupling or an
    entry point `run` refuses."""

    def __init__(self, path: str, problem: str):
        super().__init__(f"manifest {path}: {problem}")


def _count(path: str, key: str, value):
    """`value` if it is an `int` (not a `bool`) of at least 0."""
    if type(value) is not int or value < 0:
        raise ManifestError(path, f"{key}: expected a non-negative integer, got {value!r}")
    return value


def _name(path: str, key: str, value):
    """`value` if it is a string: a file, class, method or coupling name."""
    if not isinstance(value, str):
        raise ManifestError(path, f"{key}: expected a string, got {value!r}")
    return value


@A.record
class Manifest(A.Record):
    """Two tables with shared designations, plus the keys of one kind of
    comparison: `entry` (with `maxFuel`, `loopCap`) for client equivalence,
    `coupling` (with `fuels`, `maxLen`, `maxScripts`) for the simulation
    harness. `path` is the file it was read from; table paths are relative
    to its directory."""

    path: str
    table_a: str
    table_b: str
    own: str
    rep_a: str
    rep_b: str
    entry_class: Optional[str] = None
    entry_method: Optional[str] = None
    max_fuel: int = MAX_FUEL
    loop_cap: int = LOOP_CAP
    coupling: Optional[str] = None
    fuels: Tuple[int, ...] = FUELS
    max_len: int = MAX_LEN
    max_scripts: int = MAX_SCRIPTS

    @staticmethod
    def from_json(data: dict, path: str) -> "Manifest":
        base_dir = os.path.dirname(path)
        entry = data.get("entry")
        if entry is not None and not isinstance(entry, dict):
            raise ManifestError(path, f"entry: expected an object, got {entry!r}")
        coupling = data.get("coupling")
        fuels = data.get("fuels", list(FUELS))
        if not isinstance(fuels, list):
            raise ManifestError(path, f"fuels: expected a list of non-negative integers, got {fuels!r}")
        return Manifest(
            path=path,
            table_a=os.path.join(base_dir, _name(path, "tableA", data["tableA"])),
            table_b=os.path.join(base_dir, _name(path, "tableB", data["tableB"])),
            own=_name(path, "own", data["own"]),
            rep_a=_name(path, "repA", data["repA"]),
            rep_b=_name(path, "repB", data["repB"]),
            entry_class=_name(path, "entry.class", entry["class"]) if entry is not None else None,
            entry_method=_name(path, "entry.method", entry["method"]) if entry is not None else None,
            max_fuel=_count(path, "maxFuel", data.get("maxFuel", MAX_FUEL)),
            loop_cap=_count(path, "loopCap", data.get("loopCap", LOOP_CAP)),
            coupling=_name(path, "coupling", coupling) if coupling is not None else None,
            fuels=tuple(_count(path, "fuels", fuel) for fuel in fuels),
            max_len=_count(path, "maxLen", data.get("maxLen", MAX_LEN)),
            max_scripts=_count(path, "maxScripts", data.get("maxScripts", MAX_SCRIPTS)),
        )

    def designations(self) -> Designations:
        rep2 = self.rep_b if self.rep_b != self.rep_a else None
        return Designations(self.own, self.rep_a, rep2)

    def tables(self) -> Tuple[ClassTable, ClassTable]:
        """Build both tables under the shared designations."""
        des = self.designations()
        return load_table(self.table_a, des), load_table(self.table_b, des)


def load_manifest(path: str) -> Manifest:
    """Read a manifest of either kind; no table is built here."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ManifestError(path, f"not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ManifestError(path, "not a JSON object")
    try:
        return Manifest.from_json(data, path)
    except KeyError as exc:
        raise ManifestError(path, f"missing key {exc}") from None
    except TypeError as exc:
        raise ManifestError(path, f"malformed value: {exc}") from None


def run_manifest(manifest: Manifest) -> EquivVerdict:
    if manifest.entry_class is None:
        raise ManifestError(manifest.path, "missing key 'entry'")
    ct_a, ct_b = manifest.tables()
    try:
        return client_equiv(
            ct_a, ct_b, manifest.entry_class, manifest.entry_method,
            max_fuel=manifest.max_fuel, loop_cap=manifest.loop_cap,
        )
    except EntryClassError as exc:
        raise ManifestError(manifest.path, str(exc)) from None
