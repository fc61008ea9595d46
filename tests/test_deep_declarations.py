"""`jcore equiv` compares the classes both tables share without recursion:
a shared class whose body nests hundreds of locals deep gets a verdict or a
clean diagnostic, never `internal error: RecursionError`."""

import itertools
import json

import pytest

from jcore import ast as A
from jcore.cli import main

LOCALS = 400


def _program(own_body, out):
    locals_ = "; ".join(f"int x{i} := {i}" for i in range(LOCALS))
    return (
        "class Rep extends Object { }\n"
        f"class Own extends Object {{ Rep r; unit m() {{ {own_body} }} }}\n"
        f"class Main extends Object {{ int out; unit main() {{ {locals_}; self.out := {out} }} }}\n"
    )


@pytest.mark.parametrize("main_b, code, line", [
    (1, 0, "verdict: equivalent (fuel 1)"),
    (2, 1, "error: class Main differs between the tables (only Own may differ)"),
])
def test_equiv_of_a_long_shared_body(tmp_path, capsys, main_b, code, line):
    (tmp_path / "a.jcore").write_text(_program("skip", 1))
    (tmp_path / "b.jcore").write_text(_program("skip; skip", main_b))
    manifest = {"tableA": "a.jcore", "tableB": "b.jcore", "own": "Own", "repA": "Rep", "repB": "Rep",
                "entry": {"class": "Main", "method": "main"}}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    assert main(["equiv", str(tmp_path / "m.json")]) == code
    out, err = capsys.readouterr()
    assert line in (out + err).splitlines()


def test_same_tree_agrees_with_equality(tables):
    """Every pair of same-named declarations across the corpus."""
    by_name = {}
    for ct in tables.values():
        for name, decl in ct.decls.items():
            by_name.setdefault(name, []).append(decl)
    pairs = [p for decls in by_name.values() for p in itertools.combinations(decls, 2)]
    verdicts = [A.same_tree(a, b) for a, b in pairs]
    assert verdicts == [a == b for a, b in pairs]
    assert True in verdicts and False in verdicts
