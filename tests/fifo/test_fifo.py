"""The paper's FIFO queue through the command line and the simulation
harness. Static half: `check` and `analyze` of the sentinel version, the
`head`/`tail` version and a version whose public `peek` returns its first
node. Dynamic half: the monitored runs, `equiv` of the sentinel version
against the `head`/`tail` version and against a broken one whose `dequeue`
forgets to decrement `num`, and simtest of both pairs under a coupling
plug-in kept here. Both real versions share the designations `--own FIFO
--rep Node --rep2 Node2` (the sentinel version's chain is of `Node`, the
other's of `Node2`). The broken version sits in `broken/`, apart from the
versions whose safety verdicts `tests/test_safety.py` pins."""

import os

import pytest

from jcore import coupling
from jcore.classtable import Designations, load_table
from jcore.cli import main

FIFO_DIR = os.path.dirname(os.path.abspath(__file__))
DESIGNATIONS = ["--own", "FIFO", "--rep", "Node", "--rep2", "Node2"]
VERSIONS = ("fifo_sentinel.jcore", "fifo_headtail.jcore", "fifo_leaky.jcore")


@pytest.mark.parametrize("file", VERSIONS)
def test_every_version_is_well_typed(monkeypatch, capsys, file):
    monkeypatch.chdir(FIFO_DIR)
    assert main(["check", file]) == 0
    assert capsys.readouterr() == (f"{file}: ok\n", "")


@pytest.mark.parametrize("file", VERSIONS[:2])
def test_both_real_versions_are_safe(monkeypatch, capsys, file):
    monkeypatch.chdir(FIFO_DIR)
    assert main(["analyze", file, *DESIGNATIONS]) == 0
    assert capsys.readouterr() == (f"{file}: safe\n", "")


def test_a_public_peek_returning_a_node_is_the_only_finding(monkeypatch, capsys):
    monkeypatch.chdir(FIFO_DIR)
    assert main(["analyze", "fifo_leaky.jcore", *DESIGNATIONS]) == 1
    assert capsys.readouterr() == (
        "fifo_leaky.jcore: 1 diagnostic(s)\n"
        "  FIFO.peek at 66:3: OwnerPublicReturnsRep: public owner method peek (declared in FIFO)"
        " returns Node, comparable to a rep class\n",
        "",
    )


@pytest.mark.parametrize("file", VERSIONS[:2])
def test_both_real_versions_run_clean_under_the_monitor_to_one_state(monkeypatch, capsys, file):
    monkeypatch.chdir(FIFO_DIR)
    assert main(["run", "--entry", "Main.main", "--monitor", "every", file, *DESIGNATIONS]) == 0
    assert capsys.readouterr() == (
        "ok at fuel 2\nresult = it\nself = Main@0\nMain@0: {out = 2, got = Elem@0}\nElem@0: {v = 0}\n", ""
    )


def test_the_sentinel_and_head_tail_versions_are_equivalent(monkeypatch, capsys):
    monkeypatch.chdir(FIFO_DIR)
    assert main(["equiv", "fifo_sentinel_headtail.json"]) == 0
    assert capsys.readouterr() == (
        "verdict: equivalent (fuel 2)\nbijection: Elem@0->Elem@0, Main@0->Main@0\n", ""
    )


def test_a_dequeue_that_keeps_the_count_is_distinguished(monkeypatch, capsys):
    monkeypatch.chdir(FIFO_DIR)
    assert main(["equiv", "fifo_sentinel_broken.json"]) == 1
    assert capsys.readouterr() == ("verdict: distinguished (fuel 2)\nwitness: self.out: 2 vs 3\n", "")


def _chain(island, start):
    """The nodes of the `nxt` chain from `start`; None if it leaves the island
    or runs in a cycle."""
    nodes = []
    while start is not None:
        if start in nodes or start not in island:
            return None
        nodes.append(start)
        start = island[start]["nxt"]
    return nodes


def sentinel_head_tail(ct_a, ct_b, sigma, island_a, island_b):
    """Sentinel version A against `head`/`tail` version B: A's `num - 1` is B's
    `num`, B's `tail` is the last node of its chain, and the chain after A's
    sentinel holds B's chain's elements in order, related by the bijection."""
    fifo_a = island_a[coupling._island_owner(ct_a, island_a)]
    fifo_b = island_b[coupling._island_owner(ct_b, island_b)]
    if fifo_a["num"] - 1 != fifo_b["num"]:
        return "counts differ", []
    if fifo_a["snt"] not in island_a:
        return "sentinel missing", []
    chain_a, chain_b = _chain(island_a, island_a[fifo_a["snt"]]["nxt"]), _chain(island_b, fifo_b["head"])
    if chain_a is None or chain_b is None:
        return "malformed chain", []
    if fifo_b["tail"] != (chain_b[-1] if chain_b else None):
        return "tail is not the last node", []
    return coupling._obs_pairs(sigma, [island_a[n]["val"] for n in chain_a], [island_b[n]["val"] for n in chain_b])


SENTINEL_HEAD_TAIL = coupling.BasicCoupling("fifo-sentinel-head-tail", "fifo_sentinel/fifo_headtail", sentinel_head_tail)


@pytest.mark.parametrize("version_b, failures", [
    ("fifo_headtail.jcore", 0),
    (os.path.join("broken", "fifo_broken.jcore"), 128),
])
def test_simtest_passes_the_real_pair_and_fails_the_broken_one(version_b, failures):
    des = Designations("FIFO", "Node", "Node2")
    ct_a = load_table(os.path.join(FIFO_DIR, "fifo_sentinel.jcore"), des)
    ct_b = load_table(os.path.join(FIFO_DIR, version_b), des)
    report = coupling.test_simulation(ct_a, ct_b, SENTINEL_HEAD_TAIL, fuels=(1, 2, 4, 8))
    assert report.establishment == [("FIFO", True, "")]
    assert len(report.vectors) == 480 and len(report.failures()) == failures
    if failures:
        first = report.failures()[0]
        assert (first.fuel, first.failed_at, first.message) == (1, 4, "island 0: counts differ")
        assert {v.message for v in report.failures()} == {"island 0: counts differ"}
