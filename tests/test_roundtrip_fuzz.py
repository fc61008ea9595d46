"""Syntax-level fuzzing: randomly generated core programs survive a
print/parse/desugar round trip unchanged, and the parser never fails with
anything but its own error type on mangled input."""

import random

from jcore import ast as A
from jcore.classtable import build_class_table
from jcore.desugar import desugar
from jcore.parser import ParseError, parse
from jcore.pretty import program_str
from jcore.typecheck import check_table

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
    from jcore.corpus import load_corpus

    rng = random.Random(31)
    sources = [r.source() for r in load_corpus()]
    crashes = 0
    for i in range(400):
        src = rng.choice(sources)
        mode = rng.randrange(4)
        if mode == 0:
            cut = rng.randrange(len(src))
            src = src[:cut]
        elif mode == 1:
            pos = rng.randrange(len(src))
            src = src[:pos] + rng.choice(";{}():=<+-!") + src[pos:]
        elif mode == 2:
            pos = rng.randrange(len(src))
            src = src[:pos] + src[pos + 1:]
        else:
            words = src.split()
            if len(words) > 2:
                a, b = rng.randrange(len(words)), rng.randrange(len(words))
                words[a], words[b] = words[b], words[a]
            src = " ".join(words)
        try:
            desugar(parse(src))
        except ParseError:
            pass
        except Exception as exc:  # anything else is a parser bug
            crashes += 1
            print(type(exc).__name__, exc)
    assert crashes == 0


def test_parser_total_on_noise():
    rng = random.Random(97)
    alphabet = "classextendmodulnifwhoabrtskp {}();:=!<+-$0123456789\n²½é٣"
    for _ in range(400):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randrange(120)))
        # the same noise once more in expression position
        for text in (src, "class C extends Object { unit m() { result := " + src):
            try:
                parse(text)
            except ParseError:
                pass
