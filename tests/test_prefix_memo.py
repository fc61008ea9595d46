"""The simulation harness executes each script prefix once, at the largest
fuel, and derives every (script, fuel) vector from that execution: its report
is the one per-fuel replay from empty heaps gives (the oracle in `helpers`)."""

import glob
import os

import pytest

from helpers import replay_simulation
from jcore.classtable import load_table
from jcore.corpus import CORPUS_DIR
from jcore.coupling import BUILTIN_COUPLINGS, BasicCoupling, run_vector
from jcore.coupling import test_simulation as simulate
from jcore.equivalence import load_manifest

MANIFESTS = sorted(glob.glob(os.path.join(CORPUS_DIR, "manifests", "sim_*.json")))
FUEL_SETS = (None, (1,), (3,), (2, 5), (1, 2, 3, 4, 5, 6, 7, 8, 16))  # None: the manifest's


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
