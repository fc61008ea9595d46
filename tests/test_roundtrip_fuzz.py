"""Syntax-level fuzzing: randomly generated core programs survive a
print/parse/desugar round trip unchanged, and the parser never fails with
anything but its own error type on mangled input."""

import hashlib
import random

from helpers import bench_workloads, mangled_sources, noise_sources
from jcore import ast as A
from jcore.classtable import build_class_table
from jcore.corpus import load_corpus
from jcore.desugar import desugar
from jcore.parser import ParseError, parse, tokenize
from jcore.typecheck import check_table
from pretty import program_str

VARS = ["a", "b", "c", "result"]
FIELDS = ["f", "g"]
CLASSES = ["K", "L"]
METHODS = ["m", "n"]
TYPES = [A.BOOL, A.INT, A.UNIT, A.ClassType("K"), A.ClassType("L")]


def gen_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([
            A.Var(rng.choice(VARS + ["self"])),
            A.NullLit(),
            A.BoolLit(rng.random() < 0.5),
            A.IntLit(rng.randrange(10)),
            A.UnitLit(),
        ])
    kind = rng.randrange(5)
    if kind == 0:
        return A.FieldAccess(gen_expr(rng, depth - 1), rng.choice(FIELDS))
    if kind == 1:
        return A.Eq(gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))
    if kind == 2:
        op = rng.choice(["+", "-", "mod", "<"])
        return A.IntOp(op, gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))
    if kind == 3:
        return A.InstanceTest(gen_expr(rng, depth - 1), rng.choice(CLASSES))
    return A.Cast(rng.choice(CLASSES), gen_expr(rng, depth - 1))


def gen_cmd(rng, depth=3):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([A.Skip(), A.Abort(), A.Assign(rng.choice(VARS), gen_expr(rng, 1))])
    kind = rng.randrange(8)
    if kind == 0:
        return A.FieldAssign(gen_expr(rng, depth - 1), rng.choice(FIELDS), gen_expr(rng, depth - 1))
    if kind == 1:
        return A.NewAssign(rng.choice(VARS), rng.choice(CLASSES))
    if kind == 2:
        args = tuple(gen_expr(rng, 1) for _ in range(rng.randrange(3)))
        return A.CallAssign(rng.choice(VARS), gen_expr(rng, depth - 1), rng.choice(METHODS), args)
    if kind == 3:
        args = tuple(gen_expr(rng, 1) for _ in range(rng.randrange(2)))
        return A.SuperCallAssign(rng.choice(VARS), rng.choice(METHODS), args)
    if kind == 4:
        return A.LocalBlock(rng.choice(TYPES), rng.choice(VARS), gen_expr(rng, 1), gen_cmd(rng, depth - 1))
    if kind == 5:
        return A.If(gen_expr(rng, depth - 1), gen_cmd(rng, depth - 1), gen_cmd(rng, depth - 1))
    if kind == 6:
        return A.While(gen_expr(rng, depth - 1), gen_cmd(rng, depth - 1))
    return A.seq([gen_cmd(rng, depth - 1) for _ in range(rng.randint(2, 3))])


def gen_program(rng):
    classes = []
    for name in CLASSES:
        fields = tuple((f, rng.choice(TYPES)) for f in FIELDS)
        methods = tuple(
            A.MethodDecl(
                m, rng.choice(TYPES),
                tuple((v, rng.choice(TYPES)) for v in VARS[: rng.randrange(3)] if v != "result"),
                gen_cmd(rng),
                module_scoped=False,
            )
            for m in METHODS
        )
        ctor = gen_cmd(rng, 2) if rng.random() < 0.4 else A.Skip()
        classes.append(A.ClassDecl(name, "Object", fields, ctor, methods))
    return classes


def test_random_core_programs_roundtrip():
    rng = random.Random(2718)
    for i in range(300):
        prog = gen_program(rng)
        printed = program_str(prog)
        reparsed = desugar(parse(printed))
        assert reparsed == prog, f"case {i}:\n{printed}"


def _long_body(statements):
    """A method body of `statements` statements in one local's scope:
    assignments, call statements, calls in expression position and nested
    `if`/`while`."""
    forms = [
        "x := x + 1",
        "self.g(x)",
        "x := self.g(x) + 1",
        "if x < 9 then x := x + 1 else while x < 5 do x := x + 2 od fi",
    ]
    body = ["int x := 0"] + [forms[i % len(forms)] for i in range(statements - 1)]
    return (
        "class K extends Object {\n  int g(int p) { result := p + 1 }\n"
        "  unit main() {\n    " + ";\n    ".join(body) + "\n  }\n}\n"
    )


def test_long_body_checks_and_roundtrips():
    core = desugar(parse(_long_body(5000)))
    assert check_table(build_class_table(core)).ok
    assert desugar(parse(program_str(core))) == core


def test_parser_total_on_mangled_corpus():
    crashes = 0
    for src in mangled_sources():
        try:
            desugar(parse(src))
        except ParseError:
            pass
        except Exception as exc:  # anything else is a parser bug
            crashes += 1
            print(type(exc).__name__, exc)
    assert crashes == 0


def test_parser_total_on_noise():
    for text in noise_sources():
        try:
            parse(text)
        except ParseError:
            pass


def _spanned_nodes(node, parent):
    """(node, nearest spanned ancestor) for every surface node below `node`
    that carries a span, top down."""
    stack = [(node, parent)]
    while stack:
        node, parent = stack.pop()
        if isinstance(node, tuple):
            stack.extend((x, parent) for x in node)
        elif hasattr(node, "__dataclass_fields__"):
            if getattr(node, "span", None) is not None:
                yield node, parent
                parent = node
            stack.extend((getattr(node, f), parent) for f in node.__dataclass_fields__ if f != "span")


def assert_span_invariants(src):
    """Every span starts at a token's start and ends at a token's end, its
    line and column agree with its start, it nests in its parent's span, and
    a binary node starts where its left operand does, up to `(`s; both `Eq`s
    of a `!=` share one span, and every other `Eq` against a spanless `false`
    is a `!`."""
    toks = [getattr(t, "span", t) for t in tokenize(src)]
    at = {t.start: i for i, t in enumerate(toks)}
    texts = [src[t.start:t.end] for t in toks]
    ends = {t.end for t in toks}
    for node, parent in _spanned_nodes(parse(src).classes, None):
        s = node.span
        assert s.start in at and s.end in ends, node
        assert (s.line, s.col) == (src.count("\n", 0, s.start) + 1, s.start - src.rfind("\n", 0, s.start)), node
        if parent is not None:
            assert parent.span.start <= s.start and s.end <= parent.span.end, node
        if isinstance(node, (A.Eq, A.IntOp)) and node.right.span is not None:
            left, op = at[node.left.span.start], at[node.right.span.start] - 1
            assert set(texts[at[s.start]:left]) <= {"("}, node
            while texts[op] == "(":
                op -= 1
            assert texts[op] in ((node.op,) if isinstance(node, A.IntOp) else ("=", "!=")), node
            if texts[op] == "!=":
                assert parent.left is node and parent.right == A.BoolLit(False) and parent.span == s
        elif isinstance(node, A.Eq):
            assert node.right == A.BoolLit(False) and node.right.span is None, node
            assert texts[at[s.start]] == "!" or node.left.span == s, node


def test_spans_of_corpus_and_fuzz_programs():
    for rec in load_corpus():
        assert_span_invariants(rec.source())
    rng = random.Random(2718)
    for _ in range(100):
        assert_span_invariants(program_str(gen_program(rng)))


# ---------------------------------------------------------------------------
# Front-end identity: every token, span and node of a pinned set of inputs


def _bench_padded_sources(seed):
    """The sources of the benchmark's frontend workload at `seed`: each corpus
    program followed by its generated padding, as `bench/workloads.py` makes them."""
    workloads = bench_workloads()
    rng = random.Random(seed)
    names = workloads.Names(rng)
    return [r.source() + "\n" + workloads.padding(rng, names) for r in load_corpus()]


def _fields(x):
    """`x` with every dataclass field spelled out, spans included (node
    equality and `repr` leave them out); spans and tokens stay as they are."""
    if hasattr(x, "__dataclass_fields__"):
        return (type(x).__name__, *(_fields(getattr(x, f)) for f in x.__dataclass_fields__))
    if type(x) in (tuple, list):
        return [_fields(v) for v in x]
    return x


def test_front_end_output_matches_its_pinned_digest():
    """Tokens, surface trees and core trees of the corpus, the seed-5
    benchmark sources and 100 round-trip programs, and the `ParseError` of
    every mangled and noise source, all with every span: one sha256."""
    rng = random.Random(2718)
    sources = [r.source() for r in load_corpus()] + _bench_padded_sources(5)
    sources += [program_str(gen_program(rng)) for _ in range(100)]
    digest = hashlib.sha256()
    for src in sources:
        surface = parse(src)
        for part in (tokenize(src), surface, desugar(surface)):
            digest.update(repr(_fields(part)).encode())
    for src in [*mangled_sources(), *noise_sources()]:
        try:
            parse(src)
            digest.update(b"ok")
        except ParseError as exc:
            digest.update(repr((exc.message, exc.line, exc.col)).encode())
    assert len(sources) == 146
    assert digest.hexdigest() == "d91eb0a31b3abd0dcd8ffb60df3b5c5577f53532600b485904241e33b1431664"
