"""Couplings between two owner versions and a bounded simulation harness.

A basic coupling is a host-level predicate on corresponding islands of the
two versions, indexed by a type-preserving location bijection. The induced
coupling lifts it to whole states: islands matched through the bijection on
owners, a total bijection between the client blocks, and field-wise value
equivalence for client objects. The harness replays identical call scripts
against both tables, rebuilding the bijection after every step by a rooted
traversal over non-rep structure (rep correspondence is the coupling's own
business), and reports which steps preserve the relation at which fuels. It
executes each distinct script prefix once per side, at the largest fuel, and
walks each script once for all its fuels, building a fuel's vector at the
first prefix it cannot go on past, from the least fuel a call there ran at.

The evidence is bounded: scripts are finite and fuels are finite, so a clean
report is not a proof, and the report says so.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import ast as A
from .classtable import ClassTable
from .confine import ConfinementViolation, confine_heap
from .equivalence import (
    FUELS, MAX_LEN, MAX_SCRIPTS, Distinguished, Manifest, ManifestError, load_manifest, pair_reachable,
    value_equiv,
)
from .interp import FUEL_EXHAUSTED, IT, Bottom, Heap, Location, Runtime, Store, value_kind


@A.record
class ShapeError(A.Record):
    clause: int
    message: str


@A.record
class CouplingFailure(A.Record):
    where: str
    message: str


@A.record
class BasicCoupling(A.Record):
    """Island predicate plus metadata. The predicate receives the two class
    tables, the bijection, and the two islands as location->state maps; it
    returns (ok, pairs) where pairs are client-location correspondences the
    island structure itself induces (for clients reachable only from reps)."""

    name: str
    target_pair: str
    predicate: Callable[..., Tuple[object, List[Tuple[Location, Location]]]]


def _island_owner(ct: ClassTable, island: Dict[Location, dict]) -> Optional[Location]:
    owners = [l for l in island if ct.is_owner_class(l.class_name)]
    return owners[0] if len(owners) == 1 else None


def check_island_shape(ct_a: ClassTable, ct_b: ClassTable, sigma, island_a, island_b):
    """Shape conditions every basic coupling must respect: one owner per side
    at bijection-related locations, reps drawn from the designated rep class
    of each side, and non-private owner fields pairwise related."""
    own = ct_a.designations.own
    owners_a = [l for l in island_a if ct_a.is_owner_class(l.class_name)]
    owners_b = [l for l in island_b if ct_b.is_owner_class(l.class_name)]
    if len(owners_a) != 1 or len(owners_b) != 1:
        return ShapeError(1, f"islands must have exactly one owner each, got {len(owners_a)} and {len(owners_b)}")
    oa, ob = owners_a[0], owners_b[0]
    if sigma.get(oa) != ob:
        return ShapeError(1, f"owners {oa} and {ob} are not related by the bijection")
    if oa.class_name != ob.class_name:
        return ShapeError(1, f"owners have different classes: {oa.class_name} vs {ob.class_name}")
    rep_a = ct_a.designations.rep
    rep_b = ct_b.designations.rep2 or ct_b.designations.rep
    for l in island_a:
        if l != oa and not ct_a.subtype_names(l.class_name, rep_a):
            return ShapeError(2, f"{l} is not a {rep_a} rep")
    for l in island_b:
        if l != ob and not ct_b.subtype_names(l.class_name, rep_b):
            return ShapeError(2, f"{l} is not a {rep_b} rep")
    private = {f for f, _ in ct_a.dfields(own)} | {f for f, _ in ct_b.dfields(own)}
    fields_a = {f for f, _ in ct_a.fields(oa.class_name)}
    fields_b = {f for f, _ in ct_b.fields(ob.class_name)}
    for f in sorted((fields_a | fields_b) - private):
        if f not in fields_a or f not in fields_b:
            return ShapeError(3, f"non-private owner field {f} exists on one side only")
        if not value_equiv(sigma, island_a[oa][f], island_b[ob][f]):
            return ShapeError(3, f"non-private owner field {f} differs between the versions")
    return None


def induced_heap_coupling(ct_a: ClassTable, ct_b: ClassTable, sigma, h_a: Heap, h_b: Heap, bc: BasicCoupling):
    """Lift `bc` to whole heaps. Returns the bijection, a copy extended by the
    pairs the islands induce under `pair_reachable`'s rule (same class, no
    second partner for either end), or a CouplingFailure. Flexible (unforced)
    reps belong to no island payload; any placement satisfies the confinement
    clauses, and the island predicate only inspects structure reachable from
    the owner."""
    part_a = confine_heap(ct_a, h_a)
    if isinstance(part_a, ConfinementViolation):
        return CouplingFailure("heap A", part_a.render())
    part_b = confine_heap(ct_b, h_b)
    if isinstance(part_b, ConfinementViolation):
        return CouplingFailure("heap B", part_b.render())
    for a in sigma:
        if a not in h_a or sigma[a] not in h_b:
            return CouplingFailure("bijection", f"{a} -> {sigma[a]} leaves the heap domains")
    if len(part_a.islands) != len(part_b.islands):
        return CouplingFailure("islands", f"{len(part_a.islands)} vs {len(part_b.islands)} islands")
    owners_b = {o for o, _ in part_b.islands}
    sigma, used = dict(sigma), set(sigma.values())
    for i, (oa, reps_a) in enumerate(part_a.islands):
        ob = sigma.get(oa)
        if ob is None or ob not in owners_b:
            return CouplingFailure(f"island {i}", f"owner {oa} has no bijection partner among the other side's owners")
        reps_b = next(r for o, r in part_b.islands if o == ob)
        island_a = {l: h_a[l] for l in [oa, *sorted(reps_a)]}
        island_b = {l: h_b[l] for l in [ob, *sorted(reps_b)]}
        shape = check_island_shape(ct_a, ct_b, sigma, island_a, island_b)
        if shape is not None:
            return CouplingFailure(f"island {i}", f"clause {shape.clause}: {shape.message}")
        try:
            ok, pairs = bc.predicate(ct_a, ct_b, sigma, island_a, island_b)
        except (KeyError, AttributeError, TypeError) as exc:
            ok, pairs = f"island shape does not fit coupling {bc.name}: {exc!r}", []
        if ok is not True:
            return CouplingFailure(f"island {i}", str(ok))
        for a, b in pairs:
            if sigma.get(a) == b:
                continue
            if a in sigma or b in used or a.class_name != b.class_name:
                return CouplingFailure(f"island {i}", f"island structure pairs {a} with {b}, conflicting with the bijection")
            sigma[a] = b
            used.add(b)
    mapped = {sigma.get(c) for c in part_a.clients}
    if len(part_a.clients) != len(part_b.clients) or mapped != set(part_b.clients):
        return CouplingFailure("clients", "the bijection does not match the client blocks")
    for c in sorted(part_a.clients):
        for f, _ in ct_a.fields(c.class_name):
            if not value_equiv(sigma, h_a[c][f], h_b[sigma[c]][f]):
                return CouplingFailure(f"client {c}", f"field {f} differs")
    return sigma


# ---------------------------------------------------------------------------
# Rooted bijection over non-rep structure


def root_sigma(ct_a: ClassTable, ct_b: ClassTable, roots_a: Store, roots_b: Store, h_a: Heap, h_b: Heap):
    """Pair locations reachable from identically-named roots, stopping at rep
    objects: rep internals are the island predicate's concern, and private
    owner state is related by the coupling. Root values of rep type are
    paired directly (a typed bijection may include reps)."""
    own = ct_a.designations.own
    private = {f for f, _ in ct_a.dfields(own)} | {f for f, _ in ct_b.dfields(own)}

    def fields_of(loc: Location):
        role = ct_a.role(loc.class_name)
        if role == "rep":
            return ()
        return [f for f, _ in ct_a.fields(loc.class_name) if role != "owner" or f not in private]

    out = pair_reachable(roots_a, roots_b, h_a, h_b, fields_of)
    if isinstance(out, Distinguished):
        return CouplingFailure(out.path, out.message)
    return out


# ---------------------------------------------------------------------------
# Scripts


@A.record
class Step(A.Record):
    op: str  # 'new' | 'call'
    target: str  # variable name (receiver for calls, binder for new)
    method: str = ""
    args: Tuple = ()  # ('root', name) | ('lit', value)
    bind: Optional[str] = None
    prot: bool = False

    def to_json(self):
        return {
            "op": self.op, "target": self.target, "method": self.method,
            "args": [[kind, "it" if v is IT else v] for kind, v in self.args], "bind": self.bind, "prot": self.prot,
        }


def _arg_candidates(ct: ClassTable, ptype, pool: Dict[str, str]):
    if ptype == A.BOOL:
        return [("lit", True), ("lit", False)]
    if ptype == A.INT:
        return [("lit", 0), ("lit", 1)]
    if ptype == A.UNIT:
        return [("lit", IT)]
    cands = [("root", name) for name, cls in sorted(pool.items()) if ct.subtype_names(cls, ptype.name)]
    return cands or [("lit", None)]


def _concrete_client_arg_class(ct: ClassTable, pname: str) -> str:
    """Most-derived client subclass of `pname`, preferring proper subclasses
    (abstract-style base classes often have aborting stub methods)."""
    subs = [c for c in sorted(ct.decls) if ct.subtype_names(c, pname) and ct.is_client_class(c)]
    return max(subs, key=lambda c: len(ct.ancestors(c)), default=pname)


def generate_scripts(ct: ClassTable, owner_class: str, max_len: int = MAX_LEN, max_scripts: int = MAX_SCRIPTS):
    """Deterministic script enumeration: construct one owner plus client-class
    argument objects, then the first `max_scripts` call sequences of public
    owner methods up to `max_len`, breadth first, plus direct module-method
    probes after the prelude and after some of them.
    Results of public calls become roots and may be called on in later steps."""
    prelude: List[Step] = [Step("new", "o", owner_class)]
    pool: Dict[str, str] = {"o": owner_class}
    public = [m for m in ct.method_names(owner_class) if not ct.mscope(m, owner_class)]
    client_params: List[str] = []
    for m in public:
        for t in ct.mtype(m, owner_class)[0]:
            if hasattr(t, "name") and t.name in ct.decls and ct.is_client_class(t.name):
                cc = _concrete_client_arg_class(ct, t.name)
                if cc not in client_params:
                    client_params.append(cc)
    instances = client_params[:1] * 2 + client_params[1:2]
    for i, cc in enumerate(instances):
        var = f"c{i}"
        prelude.append(Step("new", var, cc))
        pool[var] = cc

    prots = sorted(m for m, _ in ct.prot_methods())

    def steps_from(pool: Dict[str, str], bind_counter: int):
        out = []
        for var in sorted(pool):
            cls = pool[var]
            for m in ct.method_names(cls):
                if ct.mscope(m, cls):
                    continue
                ptypes, ret = ct.mtype(m, cls)
                bind = f"w{bind_counter}" if ret != A.UNIT else None
                for combo in itertools.product(*[_arg_candidates(ct, t, pool) for t in ptypes]):
                    out.append(Step("call", var, m, combo, bind))
        return out

    def breadth_first():
        frontier: List[Tuple[Tuple[Step, ...], Dict[str, str]]] = [(tuple(prelude), dict(pool))]
        for _ in range(max_len):
            new_frontier = []
            for script, p in frontier:
                binds = sum(1 for s in script if s.bind)
                for st in steps_from(p, binds):
                    s2 = script + (st,)
                    p2 = dict(p)
                    if st.bind:
                        ret = ct.mtype(st.method, p[st.target])[1]
                        if hasattr(ret, "name") and ret.name in ct.decls:
                            p2[st.bind] = ret.name
                    new_frontier.append((s2, p2))
                    yield s2
            frontier = new_frontier

    scripts = list(itertools.islice(breadth_first(), max_scripts))
    # direct probes of subclass-visible module methods, as final steps
    probed = []
    for m in prots:
        ptypes, ret = ct.mtype(m, owner_class)
        args = tuple(_arg_candidates(ct, t, pool)[0] for t in ptypes)
        probe = Step("call", "o", m, args, "wp" if ret != A.UNIT else None, prot=True)
        probed.append(tuple(prelude) + (probe,))
        probed += [script + (probe,) for script in scripts[: max(1, max_scripts // 10)]]
    return scripts + probed


def _exec_step(rt: Runtime, heap: Heap, roots: Store, st: Step, fuel: int):
    if st.op == "new":
        res, bind = rt.new_object(st.method, heap), st.target
    else:
        recv = roots.get(st.target)
        if not isinstance(recv, Location):
            return Bottom("nil-dereference", f"script target {st.target} is not an object"), heap
        args = [roots.get(a[1]) if a[0] == "root" else a[1] for a in st.args]
        # script fuel selects the approximant the method BODIES run under, so a
        # step at fuel i tests the meaning built over the i-th method environment
        res, bind = rt.invoke(recv, st.method, args, heap, fuel + 1), st.bind
    if isinstance(res, Bottom):
        return res, heap
    if bind:
        roots[bind] = res[1]
    return None, res[0]


@A.record
class VectorResult(A.Record):
    """One script at one fuel: `pass`, or `fail` at step `failed_at`."""

    script: Tuple[Step, ...]
    fuel: int
    status: str  # 'pass' | 'fail'
    failed_at: int = -1
    message: str = ""
    methods: Tuple[str, ...] = ()

    def replay(self) -> dict:
        return {"fuel": self.fuel, "script": [s.to_json() for s in self.script]}


@A.record
class CouplingReport(A.Record):
    """The establishment checks and every vector of one simulation test."""

    coupling: str
    establishment: List[Tuple[str, bool, str]]
    vectors: List[VectorResult]
    note: str = "bounded evidence: finite scripts and fuels, not a proof"

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.establishment) and all(v.status == "pass" for v in self.vectors)

    def method_coverage(self) -> Dict[str, Tuple[int, int]]:
        cov: Dict[str, List[int]] = {}
        for v in self.vectors:
            for m in v.methods:
                cov.setdefault(m, [0, 0])
                cov[m][1 if v.status == "fail" else 0] += 1
        return {m: (p, f) for m, (p, f) in sorted(cov.items())}

    def failures(self) -> List[VectorResult]:
        return [v for v in self.vectors if v.status == "fail"]


@A.record
class _Prefix(A.Record):
    sides: tuple  # per side after the prefix: heap, roots, bottom or None, low_fuel
    verdict: str  # the coupling failure after it; "" if it holds or a side bottomed
    children: dict  # by next step


class PrefixMemo:
    """A trie of the script prefixes of one table pair, each executed once per
    side at `fuel` when a walk first reaches it; a memo answers every fuel up
    to its own, and `run_script` refuses a higher one."""

    def __init__(self, ct_a: ClassTable, ct_b: ClassTable, bc: BasicCoupling, fuel: int):
        self.ct_a, self.ct_b, self.bc, self.fuel = ct_a, ct_b, bc, fuel
        self.root = _Prefix((({}, {}, None, 0), ({}, {}, None, 0)), "", {})

    def extend(self, node: _Prefix, st: Step) -> _Prefix:
        """Execute `st` after `node`, keeping the child only once it is built:
        a step that raises runs again for the next walk that reaches it."""
        sides = []
        for ct, (heap, roots, _, _) in zip((self.ct_a, self.ct_b), node.sides):
            rt, roots = Runtime(ct), dict(roots)  # the entry copies the heap itself
            bot, heap = _exec_step(rt, heap, roots, st, self.fuel)
            sides.append((heap, roots, bot, rt.low_fuel))
        (h_a, roots_a, bot_a, _), (h_b, roots_b, bot_b, _) = sides
        verdict = ""
        if bot_a is None and bot_b is None:
            sigma = root_sigma(self.ct_a, self.ct_b, roots_a, roots_b, h_a, h_b)
            if not isinstance(sigma, CouplingFailure):
                sigma = induced_heap_coupling(self.ct_a, self.ct_b, sigma, h_a, h_b, self.bc)
            if isinstance(sigma, CouplingFailure):
                verdict = f"{sigma.where}: {sigma.message}"
        node.children[st] = out = _Prefix(tuple(sides), verdict, {})
        return out


def run_script(memo: PrefixMemo, script, fuels: Sequence[int]) -> List[VectorResult]:
    """The vectors of `script` at each of `fuels`, in order, from one walk of
    `memo`, at a fuel F >= each. A step runs `invoke(..., fuel + 1)`, so a side
    does what it did at F when `fuel >= F + 1 - low_fuel`, and its deepest call
    bottoms below: the walk records per prefix the least fuel that goes on
    past it, and a fuel extends the walk only past where earlier fuels went.
    A step that raises is not kept and makes this fuel's vector an error."""
    if fuels and max(fuels) > memo.fuel:
        raise ValueError(f"fuel {max(fuels)} is above the fuel {memo.fuel} of the prefix memo")
    methods, nodes, goes_on, out = _own_methods_of(memo.ct_a, script), [memo.root], [], []
    for fuel in fuels:
        for i, st in enumerate(script):
            if i == len(goes_on):
                try:
                    node = nodes[i].children.get(st) or memo.extend(nodes[i], st)
                except Exception as exc:
                    out.append(VectorResult(script, fuel, "fail", -1, f"internal error: {exc}"))
                    break
                (*_, bot_a, low_a), (*_, bot_b, low_b) = node.sides  # none goes on past a bottom or a failure
                goes_on.append(math.inf if bot_a or bot_b or node.verdict else memo.fuel + 1 - min(low_a, low_b))
                nodes.append(node)
            if fuel < goes_on[i]:
                node = nodes[i + 1]
                bot_a, bot_b = (b if fuel >= memo.fuel + 1 - low else Bottom(FUEL_EXHAUSTED) for *_, b, low in node.sides)
                if bot_a is not None and bot_b is not None:
                    out.append(VectorResult(script, fuel, "pass", i, "both sides bottom", methods))
                elif bot_a is not None or bot_b is not None:
                    side, reason = ("A", bot_a.reason) if bot_a is not None else ("B", bot_b.reason)
                    msg = f"outcomes unrelated: side {side} bottoms ({reason}), the other side terminates"
                    out.append(VectorResult(script, fuel, "fail", i, msg, methods))
                else:
                    out.append(VectorResult(script, fuel, "fail", i, node.verdict, methods))
                break
        else:
            out.append(VectorResult(script, fuel, "pass", len(script) - 1, "", methods))
    return out


def run_vector(ct_a: ClassTable, ct_b: ClassTable, bc: BasicCoupling, script, fuel: int, *,
               memo: Optional[PrefixMemo] = None) -> VectorResult:
    """Replay `script` on both tables at `fuel`, checking the coupling after
    every step: `run_script` at this one fuel, from `memo` (this pair's, at a
    fuel F >= `fuel`) or from a private memo at `fuel`."""
    return run_script(memo or PrefixMemo(ct_a, ct_b, bc, fuel), script, (fuel,))[0]


def _own_methods_of(ct: ClassTable, script) -> Tuple[str, ...]:
    cls_of: Dict[str, str] = {}
    out = []
    for st in script:
        if st.op == "new":
            cls_of[st.target] = st.method
        elif st.op == "call":
            tcls = cls_of.get(st.target)
            if tcls and ct.subtype_names(tcls, ct.designations.own):
                out.append(st.method)
            if st.bind:
                mt = ct.mtype(st.method, tcls) if tcls else None
                if mt and hasattr(mt[1], "name"):
                    cls_of[st.bind] = mt[1].name
    return tuple(out)


def check_establishment(ct_a: ClassTable, ct_b: ClassTable, bc: BasicCoupling, owner_class: str):
    """Constructors of the owner class establish the coupling from empty,
    trivially related seed heaps at bijection-related fresh locations."""
    ra, rb = Runtime(ct_a).new_object(owner_class, {}), Runtime(ct_b).new_object(owner_class, {})
    if isinstance(ra, Bottom) or isinstance(rb, Bottom):
        return False, "constructor bottomed"
    (h_a, la), (h_b, lb) = ra, rb
    out = induced_heap_coupling(ct_a, ct_b, {la: lb}, h_a, h_b, bc)
    if isinstance(out, CouplingFailure):
        return False, f"{out.where}: {out.message}"
    return True, ""


def test_simulation(
    ct_a: ClassTable,
    ct_b: ClassTable,
    bc: BasicCoupling,
    fuels: Sequence[int] = FUELS,
    max_len: int = MAX_LEN,
    max_scripts: int = MAX_SCRIPTS,
) -> CouplingReport:
    """Establishment and every (script, fuel) vector for the owner class and
    its first proper subclass."""
    own = ct_a.designations.own
    subs = [c for c in sorted(ct_a.decls) if c != own and ct_a.subtype_names(c, own)]
    owner_classes = [own] + subs[:1]
    establishment, vectors = [], []
    for oc in owner_classes:
        try:
            ok, msg = check_establishment(ct_a, ct_b, bc, oc)
        except Exception as exc:  # never throw; report instead
            ok, msg = False, f"internal error: {exc}"
        establishment.append((oc, ok, msg))
        memo = PrefixMemo(ct_a, ct_b, bc, max(fuels, default=0))
        for script in generate_scripts(ct_a, oc, max_len=max_len, max_scripts=max_scripts):
            vectors += run_script(memo, script, fuels)
    return CouplingReport(bc.name, establishment, vectors)


# ---------------------------------------------------------------------------
# Builtin couplings


def _observers(island, start):
    """The `ob` of each node on the `nxt` list from `start`; None if the list
    leaves the island or runs in a cycle."""
    obs, seen = [], set()
    while start is not None:
        if start in seen or start not in island:
            return None
        seen.add(start)
        obs.append(island[start]["ob"])
        start = island[start]["nxt"]
    return obs


def _obs_pairs(sigma, obs_a, obs_b):
    """Pointwise relate two observer sequences; contribute missing pairs."""
    if len(obs_a) != len(obs_b):
        return f"lists have different lengths ({len(obs_a)} vs {len(obs_b)})", []
    pairs = []
    for a, b in zip(obs_a, obs_b):
        ka, kb = value_kind(a), value_kind(b)
        if ka != kb:
            return "list entries of different kinds", []
        if ka == "nil":
            continue
        if a in sigma:
            if sigma[a] != b:
                return f"list entry {a} is paired with {sigma[a]}, not {b}", []
        else:
            pairs.append((a, b))
    return True, pairs


def obool_negation(ct_a, ct_b, sigma, island_a, island_b):
    oa = _island_owner(ct_a, island_a)
    ob = _island_owner(ct_b, island_b)
    ga, gb = island_a[oa]["g"], island_b[ob]["g"]
    if ga is None and gb is None:
        return True, []
    if ga is None or gb is None:
        return "one version has an uninitialized cell", []
    if island_a[ga]["f"] != (not island_b[gb]["f"]):
        return "stored flags are not complementary", []
    return True, []


def meyer_sieber_even(ct_a, ct_b, sigma, island_a, island_b):
    oa = _island_owner(ct_a, island_a)
    ob = _island_owner(ct_b, island_b)
    ga, gb = island_a[oa]["g"], island_b[ob]["g"]
    if ga != gb:
        return "counters differ", []
    if ga % 2 != 0:
        return "counter is odd", []
    return True, []


def observer_sentinel_list(ct_a, ct_b, sigma, island_a, island_b):
    """List without sentinel vs list behind a sentinel node: the observer
    sequences must match pointwise through the bijection."""
    oa = _island_owner(ct_a, island_a)
    ob = _island_owner(ct_b, island_b)
    obs_a = _observers(island_a, island_a[oa]["fst"])
    if obs_a is None:
        return "malformed list in version A", []
    snt = island_b[ob]["snt"]
    if snt is None or snt not in island_b:
        return "sentinel missing in version B", []
    obs_b = _observers(island_b, island_b[snt]["nxt"])
    if obs_b is None:
        return "malformed list in version B", []
    return _obs_pairs(sigma, obs_a, obs_b)


def observer_node_list(ct_a, ct_b, sigma, island_a, island_b):
    """Plain list vs plain list with a different rep class: same observers."""
    oa = _island_owner(ct_a, island_a)
    ob = _island_owner(ct_b, island_b)
    obs_a = _observers(island_a, island_a[oa]["fst"])
    obs_b = _observers(island_b, island_b[ob]["fst"])
    if obs_a is None or obs_b is None:
        return "malformed list", []
    return _obs_pairs(sigma, obs_a, obs_b)


BUILTIN_COUPLINGS: Dict[str, BasicCoupling] = {bc.name: bc for bc in (
    BasicCoupling("obool-negation", "obool_v1/obool_v2", obool_negation),
    BasicCoupling("meyer-sieber-even", "meyer_sieber_v1/meyer_sieber_v2", meyer_sieber_even),
    BasicCoupling("observer-sentinel-list", "observer_v1/observer_sentinel", observer_sentinel_list),
    BasicCoupling("observer-node-list", "observer_v1/observer_object", observer_node_list),
)}


# ---------------------------------------------------------------------------
# Manifest


load_sim_manifest = load_manifest


def run_sim_manifest(manifest: Manifest) -> CouplingReport:
    if manifest.coupling is None:
        raise ManifestError(manifest.path, "missing key 'coupling'")
    bc = BUILTIN_COUPLINGS.get(manifest.coupling)
    if bc is None:
        raise ManifestError(
            manifest.path,
            f"unknown coupling {manifest.coupling!r}; builtins: {', '.join(BUILTIN_COUPLINGS)}",
        )
    ct_a, ct_b = manifest.tables()
    return test_simulation(
        ct_a, ct_b, bc,
        fuels=manifest.fuels, max_len=manifest.max_len, max_scripts=manifest.max_scripts,
    )
