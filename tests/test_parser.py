import pytest

from helpers import mangled_sources, noise_sources
from jcore import ast as A
from jcore.desugar import desugar
from jcore.parser import KEYWORDS, ParseError, parse, tokenize
from jcore.corpus import load_corpus
from pretty import program_str

FIG_OBSERVER = """
class Observer extends Object {
  unit notify() { abort }
}

class Node extends Object {
  Observer ob;
  Node nxt;
  unit setOb(Observer o) { self.ob := o }
  unit setNext(Node n) { self.nxt := n }
  Observer getOb() { result := self.ob }
  Node getNext() { result := self.nxt }
}

class Observable extends Object {
  Node fst;
  unit add(Observer ob) { Node n := new Node; n.setOb(ob); n.setNext(self.fst); self.fst := n }
  unit notifyAll() {
    Node n := self.fst;
    while n != null do n.getOb().notify(); n := n.getNext() od
  }
}
"""


def test_observer_source_has_three_classes():
    prog = parse(FIG_OBSERVER)
    assert [c.name for c in prog.classes] == ["Observer", "Node", "Observable"]
    node = prog.classes[1]
    assert [f for f, _ in node.fields] == ["ob", "nxt"]
    assert [m.name for m in node.methods] == ["setOb", "setNext", "getOb", "getNext"]


def test_empty_file():
    assert parse("").classes == ()
    assert parse("// only a comment\n").classes == ()


def test_missing_superclass_is_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("class C extends { }")
    assert exc.value.line == 1


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("class C extends Object {\n  unit m() { x := }\n}")
    assert exc.value.line == 2
    # input ending inside a comment: the end of input sits past the comment
    with pytest.raises(ParseError) as exc:
        parse("class C extends Object {\n  unit m() { skip } // open")
    assert (exc.value.message, exc.value.line, exc.value.col) == ("expected type name, found 'end of input'", 2, 28)


def test_second_constructor_is_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("class C extends Object {\n  con { skip }\n  con { abort }\n}")
    assert (exc.value.message, exc.value.line, exc.value.col) == ("class C has a second constructor", 3, 3)


def test_spans_cover_node_text():
    src = "class C extends Object {\n  unit m(bool b) { if b then skip else abort fi }\n}"
    prog = parse(src)
    c = prog.classes[0]
    assert src[c.span.start:c.span.end] == src.strip()
    m = c.methods[0]
    assert src[m.span.start:m.span.end].startswith("unit m(bool b)")
    body = m.body
    assert src[body.span.start:body.span.end].startswith("if b then")


def test_surface_roundtrip_through_printer():
    for rec in load_corpus():
        src = rec.source()
        core = desugar(parse(src))
        printed = program_str(core)
        reparsed = desugar(parse(printed))
        assert reparsed == core, rec.name


def test_negation_and_disequality_forms():
    src = "class C extends Object { bool m(bool b) { result := !b; result := b != true } }"
    prog = parse(src)
    body = desugar(prog)[0].methods[0].body
    first, second = body.items
    assert first == A.Assign("result", A.Eq(A.Var("b"), A.BoolLit(False)))
    assert second == A.Assign("result", A.Eq(A.Eq(A.Var("b"), A.BoolLit(True)), A.BoolLit(False)))


def test_cast_and_unparenthesized_expression():
    src = "class C extends Object { C f; C m() { result := (C) self.f } }"
    core = desugar(parse(src))
    assign = core[0].methods[0].body
    assert assign == A.Assign("result", A.Cast("C", A.FieldAccess(A.Var("self"), "f")))


def test_parenthesized_var_is_not_cast():
    src = "class C extends Object { bool m(bool b) { result := (b) = false } }"
    core = desugar(parse(src))
    assert core[0].methods[0].body == A.Assign("result", A.Eq(A.Var("b"), A.BoolLit(False)))


def test_int_operator_precedence():
    src = "class C extends Object { bool m(int a, int b) { result := a + b mod 2 < a - b } }"
    core = desugar(parse(src))
    expected = A.IntOp(
        "<",
        A.IntOp("+", A.Var("a"), A.IntOp("mod", A.Var("b"), A.IntLit(2))),
        A.IntOp("-", A.Var("a"), A.Var("b")),
    )
    assert core[0].methods[0].body == A.Assign("result", expected)


def test_local_scope_runs_to_end_of_sequence():
    src = """
    class C extends Object {
      int f;
      unit m() { int x := 1; self.f := x; x := 2 }
    }
    """
    core = desugar(parse(src))
    block = core[0].methods[0].body
    assert isinstance(block, A.LocalBlock) and block.name == "x"
    assert isinstance(block.body, A.Seq) and len(block.body.items) == 2


def test_explicit_in_keyword():
    src = "class C extends Object { unit m() { int x := 1 in skip } }"
    core = desugar(parse(src))
    block = core[0].methods[0].body
    assert isinstance(block, A.LocalBlock)
    assert block.body == A.Skip()


def _token_tuple(t):
    p = getattr(t, "span", t)  # a token's positions: its own fields, or its `span`'s
    return t.kind, t.text, p.start, p.end, p.line, p.col


def _token_or_error(src):
    try:
        return [_token_tuple(t) for t in tokenize(src)]
    except ParseError as exc:
        return exc.message, exc.line, exc.col


def _reference_tokens(src):
    """The token classes of the parser's docstring, written as `str`
    predicates and read one character at a time: (kind, text, start, end,
    line, col) per token with the end of input last, or the (message, line,
    col) of the first character that starts no token."""
    toks, i, n, line, line_start = [], 0, len(src), 1, 0
    while i < n:
        c, j, col = src[i], i + 1, i - line_start + 1
        if c == "\n":
            line, line_start = line + 1, j
        elif c in " \t\r":
            pass
        elif src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
        elif c.isalpha() or c in "_$":
            while j < n and (src[j].isalnum() or src[j] in "_$"):
                j += 1
            toks.append(("kw" if src[i:j] in KEYWORDS else "ident", src[i:j], i, j, line, col))
        elif c.isdecimal():
            while j < n and src[j].isdecimal():
                j += 1
            toks.append(("int", src[i:j], i, j, line, col))
        elif c in "{}();,.=<+-!" or src.startswith(":=", i):
            j += src[i:i + 2] in (":=", "!=")
            toks.append(("punct", src[i:j], i, j, line, col))
        else:
            return f"unexpected character {c!r}", line, col
        i = j
    return toks + [("eof", "", n, n, line, n - line_start + 1)]


def test_character_classes_follow_the_str_predicates():
    digits = [c for c in map(chr, range(0x110000)) if c.isdigit() != c.isdecimal()]
    for c in [chr(i) for i in range(0x800) if i != 0x0A] + digits:
        for src in (c, "a" + c, "1" + c):
            assert _token_or_error(src) == _reference_tokens(src), repr(src)


def test_tokenize_matches_the_reference_scanner():
    sources = [r.source() for r in load_corpus()]
    for src in [*sources, *mangled_sources(), *noise_sources()]:
        assert _token_or_error(src) == _reference_tokens(src), repr(src)


def test_unexpected_character_is_reported_before_a_syntax_error():
    # `extends` where the class name should be is a syntax error, but the
    # whole source is scanned first, so the character after it is reported
    for src, char, line, col in [("class extends ² {", "²", 1, 15), ("class {\n  con { skip }\n  ? }", "?", 3, 3)]:
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert (exc.value.message, exc.value.line, exc.value.col) == (f"unexpected character {char!r}", line, col)
