"""The paper's FIFO queue through the command line, static half: `check` and
`analyze` of the sentinel version, the `head`/`tail` version and a version
whose public `peek` returns its first node. Both real versions share the
designations `--own FIFO --rep Node --rep2 Node2` (the sentinel version's
chain is of `Node`, the other's of `Node2`)."""

import os

import pytest

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
