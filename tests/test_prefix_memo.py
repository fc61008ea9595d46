"""The simulation harness executes each script prefix once, at the largest
fuel, and derives every (script, fuel) vector from that execution: its report
is the one per-fuel replay from empty heaps gives (the oracle in `helpers`)."""

import glob
import os

import pytest

from helpers import replay_simulation, replay_vector
from jcore.classtable import load_table
from jcore.corpus import CORPUS_DIR
from jcore.coupling import (
    BUILTIN_COUPLINGS, BasicCoupling, PrefixMemo, VectorResult, generate_scripts, run_script, run_vector,
)
from jcore.coupling import test_simulation as simulate
from jcore.equivalence import load_manifest

MANIFESTS = sorted(glob.glob(os.path.join(CORPUS_DIR, "manifests", "sim_*.json")))
FUEL_SETS = (None, (1,), (3,), (2, 5), (1, 2, 3, 4, 5, 6, 7, 8, 16))  # None: the manifest's
FUEL_ORDERS = ((8, 4, 2, 1), (2, 2, 5), (0, 3), ())  # descending, repeated, zero, none
KNOWN_LIMIT = os.path.join(CORPUS_DIR, "manifests", "sim_known_limit.json")


def _load(path):
    m = load_manifest(path)
    des = m.designations()
    return m, load_table(m.table_a, des), load_table(m.table_b, des), BUILTIN_COUPLINGS[m.coupling]


def test_every_simtest_manifest_is_covered():
    assert [os.path.basename(p) for p in MANIFESTS] == [
        "sim_known_limit.json", "sim_meyer.json", "sim_obool.json", "sim_obool_bad.json", "sim_observer.json",
    ]


@pytest.mark.parametrize("path", MANIFESTS, ids=os.path.basename)
def test_simulation_matches_per_fuel_replay(path):
    m, ct_a, ct_b, bc = _load(path)
    replayed = {}
    for fuels in FUEL_SETS:
        fuels = fuels or m.fuels
        got = simulate(ct_a, ct_b, bc, fuels=fuels, max_len=m.max_len, max_scripts=m.max_scripts)
        want = replay_simulation(ct_a, ct_b, bc, fuels, m.max_len, m.max_scripts, replayed)
        assert got.establishment == want.establishment, fuels
        assert len(got.vectors) == len(want.vectors), fuels
        for g, w in zip(got.vectors, want.vectors):
            assert g == w, (fuels, w.replay())


def test_positional_run_vector_matches_the_memo():
    """Five positional arguments, no memo: the call a caller wrapping
    `run_vector` makes, answered from a private memo at that fuel."""
    m, ct_a, ct_b, bc = _load(MANIFESTS[0])
    report = simulate(ct_a, ct_b, bc, fuels=m.fuels, max_len=m.max_len, max_scripts=m.max_scripts)
    assert report.vectors
    for v in report.vectors:
        assert run_vector(ct_a, ct_b, bc, v.script, v.fuel) == v


def test_a_step_that_raises_is_not_kept(obool_pair):
    """The coupling holds at establishment, raises on its first check in a
    vector and rejects every island after that: only the first vector is an
    internal error, and the prefix it was building is built again for the
    next vector."""
    ct_a, ct_b = obool_pair
    calls = []

    def flaky(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("first check")
        return len(calls) == 1 or "never coupled", []

    bc = BasicCoupling("flaky", "obool_v1/obool_v2", flaky)
    got = simulate(ct_a, ct_b, bc, fuels=(1, 4), max_len=2, max_scripts=10)
    calls.clear()
    want = replay_simulation(ct_a, ct_b, bc, (1, 4), 2, 10)
    assert got.establishment == want.establishment
    assert got.vectors == want.vectors
    first, *rest = got.vectors
    assert (first.failed_at, first.message) == (-1, "internal error: first check")
    assert rest and all((v.failed_at, v.message) == (0, "island 0: never coupled") for v in rest)


@pytest.mark.parametrize("path", MANIFESTS, ids=os.path.basename)
def test_one_walk_per_script_matches_per_fuel_replay_in_any_fuel_order(path):
    """`run_script` answers a script's fuels in the order given, repeats and
    zero included, from one walk of the memo."""
    m, ct_a, ct_b, bc = _load(path)
    replayed = {}
    for fuels in FUEL_ORDERS:
        got = simulate(ct_a, ct_b, bc, fuels=fuels, max_len=m.max_len, max_scripts=m.max_scripts)
        want = replay_simulation(ct_a, ct_b, bc, fuels, m.max_len, m.max_scripts, replayed)
        assert got.establishment == want.establishment, fuels
        assert got.vectors == want.vectors, fuels


def _limited_scripts(ct_a, ct_b, bc, m):
    """The scripts of `sim_known_limit`'s owner class with their fuel-1 and
    fuel-8 replays, and those that stop at step 4 at fuel 1 but pass at step 5
    at fuel 8."""
    scripts = generate_scripts(ct_a, ct_a.designations.own, max_len=m.max_len, max_scripts=m.max_scripts)
    want = {(s, f): replay_vector(ct_a, ct_b, bc, s, f) for s in scripts for f in (1, 8)}
    limited = [s for s in scripts if (want[s, 1].failed_at, want[s, 8].status, want[s, 8].failed_at) == (4, "pass", 5)]
    return scripts, want, limited


def test_a_memo_below_the_asked_fuel_is_refused():
    """A memo at fuel 1 cannot answer fuel 8: the fuel-8 vector of a script
    whose side B bottoms at fuel 1 passes, and the memo would say it fails."""
    m, ct_a, ct_b, bc = _load(KNOWN_LIMIT)
    _, want, limited = _limited_scripts(ct_a, ct_b, bc, m)
    script = limited[0]
    assert want[script, 1].message == "outcomes unrelated: side B bottoms (fuel-exhausted), the other side terminates"
    assert run_vector(ct_a, ct_b, bc, script, 8) == want[script, 8]
    memo = PrefixMemo(ct_a, ct_b, bc, 1)
    with pytest.raises(ValueError, match=r"fuel 8 .* fuel 1 "):
        run_vector(ct_a, ct_b, bc, script, 8, memo=memo)
    with pytest.raises(ValueError, match=r"fuel 8 .* fuel 1 "):
        run_script(memo, script, (1, 8))
    assert memo.root.children == {}
    assert run_script(memo, script, (1, 0)) == [want[script, 1], replay_vector(ct_a, ct_b, bc, script, 0)]


def test_a_raise_where_only_the_larger_fuel_reaches_spares_the_smaller():
    """At fuels (1, 8), five scripts of `sim_known_limit` stop at step 4 at
    fuel 1 and pass at step 5 at fuel 8. A coupling that raises while the
    first of them builds its last prefix, which only fuel 8 reaches, makes
    that script's fuel-8 vector alone an internal error: its fuel-1 vector
    keeps its verdict, and the prefix is not kept, so a later walk that
    reaches it builds it again."""
    m, ct_a, ct_b, bc = _load(KNOWN_LIMIT)
    scripts, want, limited = _limited_scripts(ct_a, ct_b, bc, m)
    assert len(limited) == 5
    target = limited[0]
    walking, built, raised = [None], [], []

    def flaky(*args):
        if built[-1] == (target, target[-1]) and not raised:
            raised.append(target)
            raise RuntimeError("flaky")
        return bc.predicate(*args)

    memo = PrefixMemo(ct_a, ct_b, BasicCoupling("flaky", bc.target_pair, flaky), 8)

    def extend(node, st):
        built.append((walking[0], st))
        return PrefixMemo.extend(memo, node, st)

    memo.extend = extend
    got = {}
    for script in scripts:
        walking[0] = script
        got[script, 1], got[script, 8] = run_script(memo, script, (1, 8))
    assert raised == [target]
    assert [st for s, st in built if s is target] == [target[-1]]
    assert got[target, 1] == want[target, 1]
    assert got[target, 8] == VectorResult(target, 8, "fail", -1, "internal error: flaky")
    assert {k: v for k, v in got.items() if k != (target, 8)} == {k: v for k, v in want.items() if k != (target, 8)}
    walking[0] = "later"
    assert run_script(memo, target, (8,)) == [want[target, 8]]
    assert built[-1] == ("later", target[-1])
