"""The iterative walks in `ast` against recursive oracles, and the checks
built on them on nesting far past the recursion limit."""

import dataclasses
import random

import pytest

from helpers import walk_commands_rec, walk_exprs_rec
from jcore import ast as A
from jcore.ast import ClassType, method_context
from jcore.classtable import Designations, build_class_table
from jcore.corpus import load_corpus
from jcore.desugar import desugar, parse_and_desugar
from jcore.parser import parse
from jcore.safety import safe_command
from jcore.typecheck import check_command
from test_roundtrip_fuzz import _bench_padded_sources, gen_program

EXPRS = (
    A.Var, A.NullLit, A.BoolLit, A.IntLit, A.UnitLit, A.FieldAccess, A.Eq, A.IntOp,
    A.InstanceTest, A.Cast, A.CallExpr, A.SuperCallExpr, A.NewExpr,
)


@pytest.fixture(scope="module")
def programs():
    """Surface and core trees of the corpus and the seed-5 benchmark sources,
    and 100 round-trip core programs (which have no surface tree)."""
    sources = [r.source() for r in load_corpus()] + _bench_padded_sources(5)
    surfaces = [parse(src) for src in sources]
    rng = random.Random(2718)
    return [(s, desugar(s)) for s in surfaces] + [(None, gen_program(rng)) for _ in range(100)]


def _exprs_in(tree):
    """The outermost expressions of `tree`: each expression of `tree` is one
    of them or inside one."""
    out, stack = [], [tree]
    while stack:
        x = stack.pop()
        if isinstance(x, EXPRS):
            out.append(x)
        elif type(x) in (tuple, list):
            stack.extend(x)
        elif dataclasses.is_dataclass(x):
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return out


def _assert_same_commands(cmd, gamma):
    got = [(id(c), ctx) for c, ctx in A.walk_commands(cmd, gamma)]
    assert got == [(id(c), ctx) for c, ctx in walk_commands_rec(cmd, gamma)]


def test_walk_commands_matches_the_recursive_walk(tables, programs):
    for ct in tables.values():
        for cname, decl in ct.decls.items():
            for m in decl.methods:
                _assert_same_commands(m.body, method_context(cname, m))
            _assert_same_commands(decl.constructor, {"self": ClassType(cname)})
    for _, core in programs:
        for decl in core:
            for m in decl.methods:
                _assert_same_commands(m.body, dict(m.params))
            _assert_same_commands(decl.constructor, {})


def test_walk_exprs_matches_the_recursive_walk(programs):
    seen = set()
    for surface, core in programs:
        for e in _exprs_in(surface) + _exprs_in(core):
            got = list(A.walk_exprs(e))
            assert [id(s) for s in got] == [id(s) for s in walk_exprs_rec(e)]
            seen.update(type(s) for s in got)
    assert seen == set(EXPRS)


def _nest(depth):
    """`depth` locals, each declared in the body of the one before."""
    body = A.Assign("x0", A.IntLit(1))
    for i in reversed(range(depth)):
        body = A.LocalBlock(A.INT, f"x{i}", A.IntLit(i), body)
    return body


def test_check_and_safety_of_a_10000_deep_nest():
    src = "class O extends Object { } class R extends Object { } class K extends Object { }"
    ct = build_class_table(parse_and_desugar(src), Designations("O", "R"))
    gamma = {"self": ClassType("K")}
    body = _nest(10000)
    assert check_command(ct, gamma, body) is None
    assert safe_command(ct, gamma, body) == []
    assert sum(1 for _ in A.walk_commands(body, gamma)) == 10001
