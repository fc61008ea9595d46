"""Every diagnostic text of the type checker, the class table and the parser,
and every problem `check_comparable` can list, pinned as printed: each case maps
one source to what `jcore check` prints for it, or one pair of sources to the
problem list. A case per branch that raises or records the text, so a rewrite
of a walk or of the parser shows whether it kept every text."""

import pytest

from jcore import ast as A
from jcore.classtable import Designations, build_class_table
from jcore.cli import main
from jcore.desugar import parse_and_desugar
from jcore.equivalence import check_comparable
from jcore.typecheck import check_table

OWN_REP = ["--own", "O", "--rep", "R"]
REP = "class R extends Object { }\n"


def _check(monkeypatch, tmp_path, capsys, src, designations=()):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.jcore").write_text(src)
    code = main(["check", "c.jcore", *designations])
    out, err = capsys.readouterr()
    assert err == ""
    return code, out


CHECK_CASES = [
    # typecheck: expressions
    ("class C extends Object {\n  int m() { result := y }\n}",
     "  C.m at 2:23: UndefinedVariable: variable y is not in scope"),
    ("class C extends Object {\n  bool m(C x) { result := x is Z }\n}",
     "  C.m at 2:27: UndeclaredClass: unknown class Z"),
    ("class C extends Object {\n  bool m() { result := 1 is C }\n}",
     "  C.m at 2:24: BadCastTarget: cannot test or cast a value of primitive type int"),
    # typecheck: commands
    ("class C extends Object {\n  int m() { result := true }\n}",
     "  C.m at 2:13: TypeMismatch: assignment: bool is not a subtype of int"),
    ("class C extends Object {\n  unit k(int i) { skip }\n  unit m() { self.k(1, 2) }\n}",
     "  C.m at 3:14: ArityMismatch: expected 1 arguments, got 2"),
    ("class C extends Object {\n  unit k(int i) { skip }\n  unit m() { self.k(true) }\n}",
     "  C.m at 3:21: TypeMismatch: argument of type bool where int is required"),
    ("class C extends Object {\n  unit m() { C self := null in skip }\n}",
     "  C.m at 2:14: SelfAssignment: self cannot be redeclared"),
    ("class C extends Object {\n  unit m() { Z z := null in skip }\n}",
     "  C.m at 2:14: UndeclaredClass: unknown class Z"),
    ("class C extends Object {\n  unit m() { int i := true in skip }\n}",
     "  C.m at 2:14: TypeMismatch: initializer of i: bool is not a subtype of int"),
    ("class C extends Object {\n  unit m(int i) { i.k() }\n}",
     "  C.m at 2:19: UndefinedMethod: cannot call a method on a value of type int"),
    ("class C extends Object {\n  int f;\n  unit m() { self.f := true }\n}",
     "  C.m at 3:14: TypeMismatch: field f: bool is not a subtype of int"),
    ("class C extends Object {\n  unit m(C x) { x := new Z }\n}",
     "  C.m at 2:17: UndeclaredClass: unknown class Z"),
    ("class C extends Object {\n  unit m() { super.m() }\n}",
     "  C.m at 2:14: UndefinedMethod: C has no proper superclass with methods"),
    ("class B extends Object { }\nclass C extends B {\n  unit m() { super.m() }\n}",
     "  C.m at 3:14: UndefinedMethod: super class B has no method m"),
    # typecheck: a constructor's type error
    ("class C extends Object {\n  int f;\n  con { self.f := true }\n}",
     "  C.con at 3:9: TypeMismatch: field f: bool is not a subtype of int"),
]


@pytest.mark.parametrize("src, diagnostic", CHECK_CASES)
def test_each_type_error_is_printed_as_pinned(monkeypatch, tmp_path, capsys, src, diagnostic):
    assert _check(monkeypatch, tmp_path, capsys, src) == (1, f"c.jcore: 1 issue(s)\n{diagnostic}\n")


def test_a_surface_call_in_a_core_tree_is_an_internal_error():
    """Only a tree built without `desugar` can hold a call in an expression."""
    call = A.CallExpr(A.Var("self"), "m", (), A.Span(0, 6, 1, 2))
    method = A.MethodDecl("m", A.UNIT, (), A.Assign("result", call), False)
    ct = build_class_table([A.ClassDecl("C", A.OBJECT, (), A.Skip(), (method,))])
    assert [i.render() for i in check_table(ct).issues] == [
        "C.m at 1:2: InternalError: surface form survived desugaring"
    ]


LOAD_CASES = [
    # class table
    ("class Object extends Object { }", (),
     "DuplicateMember: class Object is built in and cannot be declared"),
    ("class C extends Object { }\nclass C extends Object { }", (),
     "DuplicateMember: class C declared twice"),
    ("class C extends Z { }", (),
     "UndeclaredClass: superclass Z of C is not declared"),
    ("class C extends Object {\n  unit m() { skip }\n  unit m() { skip }\n}", (),
     "DuplicateMember: method m declared twice in C"),
    ("class C extends Object {\n  unit m(int self) { skip }\n}", (),
     "BadParameter: C.m: parameter named self"),
    ("class C extends Object {\n  unit m(int result) { skip }\n}", (),
     "BadParameter: C.m: parameter named result"),
    ("class C extends Object {\n  unit m(int i, bool i) { skip }\n}", (),
     "BadParameter: C.m: duplicate parameter i"),
    ("class C extends Object {\n  C f;\n  con { self.f := new Z }\n}", (),
     "UndeclaredClass: constructor of C constructs undeclared Z"),
    ("class P extends Object {\n  unit m() { skip }\n}\nclass O extends P { }\n"
     "class R extends Object {\n  module unit m() { skip }\n}", OWN_REP,
     "BadModuleScope: module-scoped method m is also declared above O (in P)"),
    # parser
    ("class C extends Object {\n  module int f;\n}", (),
     "2:3: fields cannot be module-scoped"),
    ("class C extends Object {\n  unit m() { 1 := 2 }\n}", (),
     "2:14: assignment target must be a variable or a field"),
]


@pytest.mark.parametrize("src, designations, error", LOAD_CASES)
def test_each_load_error_is_printed_as_pinned(monkeypatch, tmp_path, capsys, src, designations, error):
    assert _check(monkeypatch, tmp_path, capsys, src, designations) == (1, f"c.jcore: {error}\n")


DES = Designations("O", "R")
SUBCLASS = "class S extends O {\n  module unit m() { skip }\n}\n"

# No pair reaches "subclass-visible method m must be module-scoped in both
# tables": a method that is public in neither table and declared in both is
# module-scoped in both.
COMPARABLE_CASES = [
    (REP + "class O extends Object { }", REP + "class O extends Object { }", None,
     ["the two tables must share owner/rep designations"]),
    (REP + "class O extends Object { }\nclass X extends Object { }", REP + "class O extends Object { }", DES,
     ["class X is declared in only one table"]),
    (REP + "class P extends Object { }\nclass O extends Object { }", REP + "class P extends Object { }\n"
     "class O extends P { }", DES,
     ["the two versions of O have different superclasses"]),
    (REP + "class O extends Object {\n  unit m() { skip }\n}",
     REP + "class O extends Object {\n  module unit m() { skip }\n}", DES,
     ["owner method m is module-scoped in only one table"]),
    (REP + "class O extends Object {\n  module unit m() { skip }\n}\n" + SUBCLASS,
     REP + "class O extends Object { }\n" + SUBCLASS, DES,
     ["subclass-visible module method m is missing from one table"]),
    (REP + "class O extends Object {\n  module unit m() { skip }\n}\n" + SUBCLASS,
     REP + "class O extends Object {\n  module unit m(int i) { skip }\n}\n" + SUBCLASS, DES,
     ["subclass-visible module method m has different signatures"]),
]


@pytest.mark.parametrize("src_a, src_b, des_b, problems", COMPARABLE_CASES)
def test_each_comparability_problem_is_listed_as_pinned(src_a, src_b, des_b, problems):
    ct_a = build_class_table(parse_and_desugar(src_a), DES)
    ct_b = build_class_table(parse_and_desugar(src_b), des_b)
    assert check_comparable(ct_a, ct_b) == problems
