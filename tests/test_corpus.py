import importlib
import os
import re

from jcore.corpus import CORPUS_DIR, replay

REQUIRED_PROGRAMS = {
    "bool_v1", "bool_v2", "obool_v1", "obool_v2",
    "obool_bad_v1", "obool_bad_v2", "obool_bad_object", "obool_bad_leak",
    "meyer_sieber_v1", "meyer_sieber_v2",
    "observer_core", "observer_v1", "observer_sentinel",
    "observer_object", "observer_object_sentinel",
    "observer_sub", "observer_factory", "observer_factory_sentinel",
    "observer_groups", "observer_behavioral_a", "observer_behavioral_b",
    "observer_version_a", "observer_version_b",
}


def test_corpus_complete(corpus):
    assert REQUIRED_PROGRAMS <= set(corpus)


def test_every_program_has_expectations(corpus):
    for rec in corpus.values():
        assert os.path.exists(rec.path)
        assert rec.check == "ok"


def test_every_record_is_hashable(corpus):
    """Records are frozen, so each hashes, also those whose entries require
    monitor violations (a list in the JSON file)."""
    records = list(corpus.values())
    assert any(e.monitor != "clean" for r in records for e in r.entries)
    assert len(set(records)) == len(records)


def test_expectation_records_replay():
    assert replay() == []


# Concept labels the design map must cover; one row per named piece of the
# underlying development, including the explicit out-of-scope notes.
REQUIRED_CONCEPTS = [
    "Subtyping relation",
    "Incomparable classes",
    "Constructor dependence",
    "Well formed class table",
    "Inheritance (method resolution)",
    "Method depth",
    "Semantic dependence order",
    "Typing of expressions",
    "Typing of commands",
    "Typing of constructors",
    "Typing of method declarations",
    "Uniqueness of typing derivations",
    "Semantic domains",
    "Closed heap and store",
    "Allocator, parametric allocator",
    "Semantics of expressions",
    "Semantics of commands",
    "Semantics of constructors",
    "Semantics of method declarations",
    "Method environment approximation chain",
    "Restriction of inherited method meanings",
    "Semantics well defined and typed",
    "Syntactic sugar",
    "Admissible partition",
    "Confined heap, confining partition",
    "Partition extension",
    "Extension by constructors and commands",
    "Confined store, confined global state",
    "Confined expression",
    "Confined command",
    "Confined arguments",
    "Confined method environment",
    "Confined class table",
    "Confinement of the table semantics",
    "Module-scoped methods",
    "Subclass-visible module methods (prot)",
    "Comparable class tables",
    "Basic coupling",
    "Induced coupling relation",
    "Simulation",
    "Typed bijection",
    "Value equivalence",
    "Garbage collection, owner-free states",
    "Identity extension",
    "Client program equivalence",
    "First abstraction theorem",
    "Second abstraction theorem",
    "Safety relation for expressions",
    "Safety relation for commands",
    "Safe class table",
    "Soundness of the static analysis",
    "Loop versus recursion limit",
    "Behavioral subclassing",
    "Ownership transfer",
]


def test_trace_map_covers_every_concept():
    with open(os.path.join(CORPUS_DIR, "TRACE.md")) as f:
        text = f.read()
    missing = [c for c in REQUIRED_CONCEPTS if c not in text]
    assert not missing, missing


def test_trace_map_rows_name_real_attributes():
    """Rows name `jcore.<module>.<attribute>` in the package or
    `tests/<module>.py::<function>` for a test oracle; each must exist."""
    import jcore

    with open(os.path.join(CORPUS_DIR, "TRACE.md")) as f:
        text = f.read()
    for mod, attr in re.findall(r"`jcore\.(\w+)\.(\w+)", text):
        module = getattr(__import__(f"jcore.{mod}", fromlist=[mod]), attr, None)
        assert module is not None, f"jcore.{mod}.{attr} does not exist"
    oracles = re.findall(r"`tests/(\w+)\.py::(\w+)`", text)
    assert len(oracles) >= 5
    for mod, name in oracles:
        assert callable(getattr(importlib.import_module(mod), name, None)), f"tests/{mod}.py::{name} does not exist"
