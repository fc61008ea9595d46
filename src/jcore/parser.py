"""Parser for `.jcore` source files.

Surface syntax is Java-like: class declarations with private fields, a
parameterless constructor `con { ... }`, and public or `module` methods.
Statements use `:=` for assignment, `if/then/else/fi`, `while/do/od`, and
local declarations whose scope extends to the end of the enclosing sequence
(an explicit `in` is also accepted). A class has at most one constructor.

Tokens, as `tokenize` reads them (a character class named by a `str`
predicate means every code point for which it holds):

* identifier or keyword: a letter (`isalpha`), `_` or `$`, then any run of
  `isalnum` characters, `_` and `$`; the words in `KEYWORDS` are keywords;
* integer literal: a run of decimal digits (`isdecimal`);
* punctuation: `:=` `!=` `{` `}` `(` `)` `;` `,` `.` `=` `<` `+` `-` `!`;
* spaces, tabs and carriage returns separate tokens; `\n` ends a line;
  `//` starts a comment that runs to the end of the line;
* any other character is a `ParseError` at its line and column. Columns
  count code points from 1; the end-of-input token sits one past the last
  character.

The scanner makes one `split` of the source, which gives a flat list of
strings: per token, the blanks, newlines and comments skipped, then the
token's text. Token starts and ends are running sums of these lengths
(`itertools.accumulate`); lines and columns follow from the newlines in the
skipped text. Each distinct text is classified once: its kind follows from
the text (`_KINDS`) or, for identifiers and integers, its first character.
An unexpected character is reported before any parsing starts. The parser
reads the scan as parallel lists, a token being its index, and builds no
object per token. `tokenize` returns the same scan as a list of `Token`
tuples `(kind, text, start, end, line, col)`. Tokens and spans are built by
`tuple.__new__`, skipping the named tuple's Python-level constructor.

Each method and constructor body records `first_tmp`, one past the largest N
of a `$tmpN` in the identifiers between its braces (0 when the source has no
`$`): the first name `desugar` may give a fresh local.

Binary operators by precedence, `_PREC`, all left-associative; `expr`
parses them by precedence climbing, one call per operand:

    0  =  !=
    1  <
    2  +  -
    3  mod

They bind looser than the prefix forms `!e` and `(C) e`, which bind looser
than the postfix forms `e.f`, `e.m(...)` and `e is C`. `operand` reads a
prefix form, or a primary and its postfix forms, in one frame: an operand
costs two Python frames (`expr` and `operand`), and so does each level of
parentheses.

The parser produces a surface tree in which method calls may appear inside
expressions and `new` may initialize fields and locals; `desugar` lowers all
of that to the core AST. Boolean negation `!e` and disequality `e1 != e2`
are accepted and represented with equality against `false`.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import field
from itertools import accumulate, repeat
from typing import List, Optional, Tuple

from . import ast as A
from .ast import Span

KEYWORDS = {
    "class", "extends", "con", "module",
    "skip", "abort", "if", "then", "else", "fi", "while", "do", "od", "in",
    "new", "null", "true", "false", "it", "is", "super",
    "bool", "unit", "int", "mod",
}

# Blanks, newlines and comments to skip (group 1), then one token (group 2):
# the first alternative that matches, so `12ab` is the int `12`, then the
# identifier `ab`. One of them matches wherever the skip stops, so it never
# backtracks and needs no `*+`; the empty match at the end is end of input.
_TOKEN_RE = re.compile(r"((?:[ \t\r\n]+|//[^\n]*)*)(\d+|[\w$]+|:=|!=|[{}();,.=<+\-!]|.|\Z)", re.DOTALL)
# The kind of every keyword and punctuation text and of end of input; any
# other token is an identifier, an int or an error, by its first character.
_KINDS = {**dict.fromkeys(KEYWORDS, "kw"), **dict.fromkeys((":=", "!=", *"{}();,.=<+-!"), "punct"), "": "eof"}
_TMP_RE = re.compile(r"\$tmp(\d+)")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


Token = namedtuple("Token", "kind text start end line col")  # kind: 'ident' | 'int' | 'punct' | 'kw' | 'eof'


def _kind(text: str) -> Optional[str]:
    """The kind of a token's text; None for a character that starts no token
    (`\\w` also matches digits and numerals that are not decimal, like `²`)."""
    if text in _KINDS:
        return _KINDS[text]
    c = text[0]
    return "ident" if c.isalpha() or c == "_" or c == "$" else "int" if c.isdecimal() else None


def _scan(src: str):
    """The tokens of `src` as six parallel lists, in `Token`'s field order,
    end of input last; see the module docstring."""
    parts = _TOKEN_RE.split(src)  # '', then per match: skip, text, ''
    texts = parts[2::3]
    n = texts.index("") + 1  # after a skip at the end, `\Z` matches once more
    del texts[n:]
    offs = list(accumulate(map(len, parts)))
    starts, ends = offs[1:3 * n:3], offs[2:3 * n:3]
    lines, cols = [], []
    line, newline = 1, -1  # the position of the last newline so far; only skips hold them
    for skip, start in zip(parts[1::3], starts):
        if "\n" in skip:
            line += skip.count("\n")
            newline = start - len(skip) + skip.rfind("\n")
        lines.append(line)
        cols.append(start - newline)
    kind_of = {text: _kind(text) for text in set(texts)}
    kinds = list(map(kind_of.__getitem__, texts))
    if None in kind_of.values():
        i = kinds.index(None)
        raise ParseError(f"unexpected character {texts[i][0]!r}", lines[i], cols[i])
    return kinds, texts, starts, ends, lines, cols


def tokenize(src: str) -> List[Token]:
    return list(map(tuple.__new__, repeat(Token), zip(*_scan(src))))


# ---------------------------------------------------------------------------
# Surface tree


@A.node
class SLocal(A.Node):
    var_type: object
    name: str
    rhs: object  # expression (may be NewExpr / CallExpr / SuperCallExpr)
    body: object  # SSeq | statement | None (None: scope ran to end of sequence)


@A.node
class SAssign(A.Node):
    lhs: object  # Var or FieldAccess
    rhs: object


@A.node
class SCallStmt(A.Node):
    call: object  # CallExpr | SuperCallExpr


@A.node
class SIf(A.Node):
    cond: object
    then_seq: object
    else_seq: object


@A.node
class SWhile(A.Node):
    cond: object
    body: object


@A.node
class SSkip(A.Node):
    """`skip`."""


@A.node
class SAbort(A.Node):
    """`abort`."""


@A.node
class SSeq(A.Node):
    items: Tuple[object, ...]


@A.record
class SurfaceMethod(A.Record):
    name: str
    return_type: object
    params: Tuple[Tuple[str, object], ...]
    body: object
    module_scoped: bool
    span: Optional[Span] = field(default=None, compare=False, repr=False)
    first_tmp = 0  # not a field: the parser sets it, see the module docstring


@A.record
class SurfaceClass(A.Record):
    name: str
    super_name: str
    fields: Tuple[Tuple[str, object], ...]
    constructor: object  # statement or None
    methods: Tuple[SurfaceMethod, ...]
    span: Optional[Span] = field(default=None, compare=False, repr=False)
    con_first_tmp = 0  # the constructor's `first_tmp`, set like `SurfaceMethod.first_tmp`


@A.record
class SurfaceProgram(A.Record):
    classes: Tuple[SurfaceClass, ...]
    source: str = field(default="", compare=False, repr=False)


# After `(C)`, an identifier, an int or one of these texts makes it a cast.
_CAST_OPERAND_START = {"null", "true", "false", "it", "new", "super", "(", "!"}

# Binary operators and their precedence, loosest lowest; all left-associative.
_PREC = {"=": 0, "!=": 0, "<": 1, "+": 2, "-": 2, "mod": 3}

# Texts that start a keyword statement; texts that end a sequence (eof's is "").
_STMT_START = {"skip", "abort", "{", "if", "while"}
_SEQ_END = {"}", "else", "fi", "od", ""}


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.dollar = "$" in src
        # a token is its index into these lists
        self.kinds, self.texts, self.starts, self.ends, self.lines, self.cols = _scan(src)
        self.kinds += ["eof"] * 3  # the deepest lookahead, 3 past a `(`
        self.texts += [""] * 3
        self.pos = 0

    # -- token helpers

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, self.lines[i], self.cols[i])

    def accept(self, text: str) -> bool:
        # no identifier or integer is spelled like a keyword or punctuation
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str, what: str = "") -> None:
        if self.texts[self.pos] != text:
            raise self.error(what or f"expected {text!r}, found {self.texts[self.pos] or 'end of input'!r}", self.pos)
        self.pos += 1

    def expect_ident(self, what: str) -> str:
        """The text of the identifier at the current token, consumed."""
        i = self.pos
        if self.kinds[i] != "ident":
            raise self.error(f"expected {what}, found {self.texts[i] or 'end of input'!r}", i)
        self.pos = i + 1
        return self.texts[i]

    def span_from(self, i: int) -> Span:
        """The span from token `i` to the last token consumed."""
        return tuple.__new__(Span, (self.starts[i], self.ends[self.pos - 1], self.lines[i], self.cols[i]))

    def body(self):
        """A method or constructor body in braces, and its `first_tmp`."""
        self.expect("{")
        first = self.pos
        body = self.stmt_seq()
        self.expect("}")
        if not self.dollar:
            return body, 0
        nums = [int(n) for text in self.texts[first:self.pos - 1] for n in _TMP_RE.findall(text)]
        return body, max(nums, default=-1) + 1

    # -- program structure

    def program(self) -> SurfaceProgram:
        classes = []
        while self.kinds[self.pos] != "eof":
            classes.append(self.class_decl())
        return SurfaceProgram(tuple(classes), self.src)

    def class_decl(self) -> SurfaceClass:
        start = self.pos
        self.expect("class")
        name = self.expect_ident("class name")
        self.expect("extends")
        sup = self.expect_ident("superclass name")
        self.expect("{")
        fields: List[Tuple[str, object]] = []
        methods: List[SurfaceMethod] = []
        ctor, con_tmp = None, 0
        while self.texts[self.pos] != "}":
            mstart = self.pos
            if self.accept("con"):
                if ctor is not None:
                    raise self.error(f"class {name} has a second constructor", mstart)
                ctor, con_tmp = self.body()
                continue
            module_scoped = self.accept("module")
            t = self.type_expr()
            member = self.expect_ident("member name")
            if self.accept(";"):
                if module_scoped:
                    raise self.error("fields cannot be module-scoped", mstart)
                fields.append((member, t))
                continue
            self.expect("(", "expected ';' or '(' after member name")
            params: List[Tuple[str, object]] = []
            if self.texts[self.pos] != ")":
                while True:
                    pt = self.type_expr()
                    params.append((self.expect_ident("parameter name"), pt))
                    if not self.accept(","):
                        break
            self.expect(")")
            body, tmp = self.body()
            methods.append(SurfaceMethod(member, t, tuple(params), body, module_scoped, self.span_from(mstart)))
            object.__setattr__(methods[-1], "first_tmp", tmp)  # a frozen record's non-field
        self.expect("}")
        cls = SurfaceClass(name, sup, tuple(fields), ctor, tuple(methods), self.span_from(start))
        object.__setattr__(cls, "con_first_tmp", con_tmp)
        return cls

    def type_expr(self):
        t = A.PRIM_NAMES.get(self.texts[self.pos])
        if t is not None:
            self.pos += 1
            return t
        return A.ClassType(self.expect_ident("type name"))

    # -- statements

    def stmt_seq(self):
        """Parse statements up to the enclosing terminator ('}', else, fi, od)."""
        items: List[object] = []
        texts = self.texts
        while texts[self.pos] not in _SEQ_END:
            items.append(self.stmt())
            if texts[self.pos] != ";":
                break
            self.pos += 1
        if not items:
            return SSkip()
        if len(items) == 1:
            return items[0]
        return SSeq(tuple(items))

    def stmt(self):
        start = self.pos
        text = self.texts[start]
        if text in _STMT_START:
            self.pos += 1
            if text == "skip":
                return SSkip(self.span_from(start))
            if text == "abort":
                return SAbort(self.span_from(start))
            if text == "{":
                body = self.stmt_seq()
                self.expect("}")
                return body
            cond = self.expr()
            if text == "if":
                self.expect("then")
                then_seq = self.stmt_seq()
                self.expect("else")
                else_seq = self.stmt_seq()
                self.expect("fi")
                return SIf(cond, then_seq, else_seq, self.span_from(start))
            self.expect("do")
            body = self.stmt_seq()
            self.expect("od")
            return SWhile(cond, body, self.span_from(start))
        # a local declaration: a type, then the variable's name
        if (self.kinds[start] == "ident" or text in A.PRIM_NAMES) and self.kinds[start + 1] == "ident":
            t = self.type_expr()
            name = self.expect_ident("variable name")
            self.expect(":=", "expected ':=' in local declaration")
            rhs = self.rhs()
            body = self.stmt_seq() if self.accept("in") else None
            return SLocal(t, name, rhs, body, self.span_from(start))
        # assignment or call statement
        e = self.expr()
        if self.accept(":="):
            if not isinstance(e, (A.Var, A.FieldAccess)):
                raise self.error("assignment target must be a variable or a field", start)
            rhs = self.rhs()
            return SAssign(e, rhs, self.span_from(start))
        if isinstance(e, (A.CallExpr, A.SuperCallExpr)):
            return SCallStmt(e, self.span_from(start))
        raise self.error("expected ':=' or a method call statement", start)

    def rhs(self):
        start = self.pos
        if self.texts[start] == "new":
            self.pos = start + 1
            return A.NewExpr(self.expect_ident("class name after 'new'"), self.span_from(start))
        return self.expr()

    # -- expressions

    def expr(self, min_prec: int = 0):
        """Precedence climbing: an operand, then a left-associative chain of
        the operators of `_PREC` that bind at least as tight as `min_prec`.
        Every node spans from the start of its chain."""
        start = self.pos
        e = self.operand()
        texts = self.texts
        while True:
            op = texts[self.pos]
            prec = _PREC.get(op)
            if prec is None or prec < min_prec:
                return e
            self.pos += 1
            r = self.expr(prec + 1)
            span = self.span_from(start)
            if op == "=":
                e = A.Eq(e, r, span)
            elif op == "!=":
                e = A.Eq(A.Eq(e, r, span), A.BoolLit(False), span)
            else:
                e = A.IntOp(op, e, r, span)

    def operand(self):
        """A prefix form `!e` or `(C) e` over an operand, or a primary
        followed by its postfix forms: two frames per operand (this and
        `expr`), and two per level of parentheses."""
        start = self.pos
        kinds, texts = self.kinds, self.texts
        kind, text = kinds[start], texts[start]
        self.pos = start + 1  # every operand but a ParseError starts by consuming `start`
        if kind == "ident":
            e = A.Var(text, self.span_from(start))
        elif kind == "int":
            e = A.IntLit(int(text), self.span_from(start))
        elif text == "!":
            e = self.operand()
            return A.Eq(e, A.BoolLit(False), self.span_from(start))
        elif text == "(":
            if kinds[start + 1] == "ident" and texts[start + 2] == ")" and (
                    kinds[start + 3] in ("ident", "int") or texts[start + 3] in _CAST_OPERAND_START):
                self.pos = start + 3  # `(C)` before the start of an operand is a cast
                return A.Cast(texts[start + 1], self.operand(), self.span_from(start))
            e = self.expr()
            self.expect(")")
        elif text == "true" or text == "false":
            e = A.BoolLit(text == "true", self.span_from(start))
        elif text == "null":
            e = A.NullLit(self.span_from(start))
        elif text == "it":
            e = A.UnitLit(self.span_from(start))
        elif text == "super":
            self.expect(".", "expected '.' after 'super'")
            name = self.expect_ident("method name")
            self.expect("(", "super calls require an argument list")
            e = A.SuperCallExpr(name, self.call_args(), self.span_from(start))
        else:
            raise self.error(f"expected an expression, found {text or 'end of input'!r}", start)
        while True:
            text = texts[self.pos]
            if text == ".":
                self.pos += 1
                name = self.expect_ident("member name")
                if self.accept("("):
                    e = A.CallExpr(e, name, self.call_args(), self.span_from(start))
                else:
                    e = A.FieldAccess(e, name, self.span_from(start))
            elif text == "is":
                self.pos += 1
                e = A.InstanceTest(e, self.expect_ident("class name after 'is'"), self.span_from(start))
            else:
                return e

    def call_args(self):
        args = []
        if self.texts[self.pos] != ")":
            while True:
                args.append(self.expr())
                if not self.accept(","):
                    break
        self.expect(")")
        return tuple(args)


def parse(src: str) -> SurfaceProgram:
    return _Parser(src).program()
