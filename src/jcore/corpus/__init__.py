"""Built-in example corpus: programs, expected results, and manifests.

Each corpus program ships with an expectation record (well-formedness and
analysis verdicts, entry points with pinned outcomes and minimal sufficient
fuel, monitor expectations). The records are executable fixtures: `replay`
runs them, for the test suite and for `corpus run-all`.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

from .. import ast as A
from ..classtable import ClassTable, Designations, load_table
from ..confine import run_with_monitor
from ..coupling import run_sim_manifest
from ..equivalence import load_manifest, run_manifest
from ..safety import safe_table
from ..typecheck import check_table

CORPUS_DIR = os.path.dirname(os.path.abspath(__file__))


@A.record
class EntryExpectation(A.Record):
    entry_class: str
    entry_method: str
    outcome: str  # 'ok' or a bottom reason
    min_fuel: int
    monitor: object  # 'clean' or a tuple of required violation kinds
    finals: Tuple[Tuple[str, object], ...]  # (dotted path from a store var, value)


@A.record
class CorpusRecord(A.Record):
    name: str
    path: str
    own: str
    rep: str
    rep2: Optional[str]
    check: str
    analyze: Tuple[str, ...]  # required diagnostic rules; empty means accepted
    entries: Tuple[EntryExpectation, ...]
    notes: str

    def designations(self) -> Designations:
        return Designations(self.own, self.rep, self.rep2)

    def source(self) -> str:
        with open(self.path, "r", encoding="utf-8") as f:
            return f.read()

    def build(self) -> ClassTable:
        return load_table(self.path, self.designations())


def _load_expectations() -> dict:
    with open(os.path.join(CORPUS_DIR, "expectations.json"), "r", encoding="utf-8") as f:
        return json.load(f)


def _required_kinds(monitor):
    """'clean', or the listed violation kinds as a tuple, so records hash."""
    return monitor if monitor == "clean" else tuple(monitor)


def load_corpus() -> List[CorpusRecord]:
    data = _load_expectations()
    records = []
    for p in data["programs"]:
        entries = tuple(
            EntryExpectation(
                e["class"], e["method"], e["outcome"], e["minFuel"],
                _required_kinds(e.get("monitor", "clean")),
                tuple((path, value) for path, value in e.get("final", [])),
            )
            for e in p.get("entries", [])
        )
        records.append(CorpusRecord(
            name=p["name"],
            path=os.path.join(CORPUS_DIR, p["file"]),
            own=p["own"],
            rep=p["rep"],
            rep2=p.get("rep2"),
            check=p.get("check", "ok"),
            analyze=tuple(p.get("analyze", [])),
            entries=entries,
            notes=p.get("notes", ""),
        ))
    return records


def corpus_record(name: str) -> CorpusRecord:
    for r in load_corpus():
        if r.name == name:
            return r
    raise KeyError(f"no corpus program named {name}")


def equiv_expectations() -> List[Tuple[str, str]]:
    """(manifest path, expected verdict) pairs."""
    data = _load_expectations()
    return [(os.path.join(CORPUS_DIR, e["manifest"]), e["verdict"]) for e in data["equiv"]]


def simtest_expectations() -> List[Tuple[str, bool]]:
    """(manifest path, expected pass/fail) pairs."""
    data = _load_expectations()
    return [(os.path.join(CORPUS_DIR, e["manifest"]), e["ok"]) for e in data["simtest"]]


def navigate(heap, store, path: str):
    """Follow a dotted path like `self.ob.count` through a final state."""
    parts = path.split(".")
    value = store[parts[0]]
    for f in parts[1:]:
        value = heap[value][f]
    return value


def replay() -> List[str]:
    """Replay every expectation record, then the equivalence and simtest
    expectations. Returns one line per mismatch; empty means all hold."""
    failures = []
    for r in load_corpus():
        try:
            ct = r.build()
        except Exception as exc:
            failures.append(f"{r.name}: build failed: {exc}")
            continue
        treport = check_table(ct)
        if (r.check == "ok") != treport.ok:
            failures.append(f"{r.name}: check expectation mismatch")
        sreport = safe_table(ct)
        if set(r.analyze) != sreport.rules():
            failures.append(f"{r.name}: analyze expected {sorted(r.analyze)}, got {sorted(sreport.rules())}")
        for e in r.entries:
            result, violations = run_with_monitor(ct, e.entry_class, e.entry_method)
            outcome = "ok" if result.ok else result.outcome.reason
            if outcome != e.outcome:
                failures.append(f"{r.name}: outcome {outcome}, expected {e.outcome}")
                continue
            if result.fuel_used != e.min_fuel:
                failures.append(f"{r.name}: fuel {result.fuel_used}, expected {e.min_fuel}")
            kinds = {v.kind for v in violations}
            if e.monitor == "clean":
                if kinds:
                    failures.append(f"{r.name}: unexpected monitor violations {sorted(kinds)}")
            else:
                missing = set(e.monitor) - kinds
                if missing:
                    failures.append(f"{r.name}: missing monitor violations {sorted(missing)}")
            if result.ok:
                h, eta = result.outcome
                for path, expected in e.finals:
                    actual = navigate(h, eta, path)
                    if actual != expected:
                        failures.append(f"{r.name}: {path} = {actual}, expected {expected}")
    for mpath, verdict in equiv_expectations():
        got = run_manifest(load_manifest(mpath)).kind
        if got != verdict:
            failures.append(f"{mpath}: verdict {got}, expected {verdict}")
    for mpath, expected_ok in simtest_expectations():
        got_ok = run_sim_manifest(load_manifest(mpath)).ok
        if got_ok != expected_ok:
            failures.append(f"{mpath}: {'clean' if got_ok else 'failing'}, expected the opposite")
    return failures
