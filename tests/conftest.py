import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from jcore.corpus import corpus_record, load_corpus


@pytest.fixture(scope="session")
def corpus():
    return {r.name: r for r in load_corpus()}


@pytest.fixture(scope="session")
def tables(corpus):
    """Built class tables for every corpus program, keyed by name."""
    return {name: rec.build() for name, rec in corpus.items()}


def pair_tables(name_a, name_b, own, rep_a, rep_b):
    """Build a comparable pair with shared designations."""
    from jcore.classtable import Designations, load_table

    des = Designations(own, rep_a, rep_b if rep_b != rep_a else None)
    return load_table(corpus_record(name_a).path, des), load_table(corpus_record(name_b).path, des)


@pytest.fixture(scope="session")
def observer_pair():
    return pair_tables("observer_v1", "observer_sentinel", "Observable", "Node", "Node2")


@pytest.fixture(scope="session")
def obool_pair():
    return pair_tables("obool_v1", "obool_v2", "OBool", "Bool", "Bool")


@pytest.fixture(scope="session")
def obool_bad_pair():
    return pair_tables("obool_bad_v1", "obool_bad_v2", "OBool", "Bool", "Bool")


@pytest.fixture(scope="session")
def meyer_pair():
    return pair_tables("meyer_sieber_v1", "meyer_sieber_v2", "A", "Rep", "Rep")


@pytest.fixture(scope="session")
def known_limit_pair():
    return pair_tables("observer_v1", "observer_object", "Observable", "Node", "Node1")


@pytest.fixture
def partition_oracles(monkeypatch):
    """Chain a PartitionOracle after the monitor of every Runtime built during
    the test, so confine_heap checks each of its checkpoints; returns the
    oracles, one per Runtime."""
    from helpers import PartitionOracle
    from jcore.confine import ConfinementMonitor
    from jcore.interp import HookChain, Runtime

    oracles = []
    init = Runtime.__init__

    def chained(self, ct, loop_cap=100000, hooks=None):
        if isinstance(hooks, ConfinementMonitor):
            oracles.append(PartitionOracle(ct, hooks))
            hooks = HookChain(hooks, oracles[-1])
        init(self, ct, loop_cap, hooks)

    monkeypatch.setattr(Runtime, "__init__", chained)
    return oracles
