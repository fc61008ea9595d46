"""Class tables: well-formedness checking and the derived static relations.

A class table maps class names to declarations and carries the designated
owner/rep class names used by the confinement machinery. Everything derived
(subtyping, field and method lookup, constructor dependence, module scope,
prot methods) is computed once at build time; the table is immutable
afterwards and all queries are pure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from . import ast as A
from .ast import OBJECT, ClassDecl, ClassType, MethodDecl, NullType, PrimType
from .desugar import parse_and_desugar


class WellFormednessError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


@A.record
class Designations(A.Record):
    own: str
    rep: str
    rep2: Optional[str] = None

    def rep_names(self) -> Tuple[str, ...]:
        return (self.rep,) if self.rep2 is None else (self.rep, self.rep2)


class ClassTable:
    """Immutable program: declarations plus every derived static table."""

    def __init__(self, decls: List[ClassDecl], designations: Optional[Designations] = None):
        self.decls: Dict[str, ClassDecl] = {}
        for d in decls:
            if d.name == OBJECT:
                raise WellFormednessError("DuplicateMember", f"class {OBJECT} is built in and cannot be declared")
            if d.name in self.decls:
                raise WellFormednessError("DuplicateMember", f"class {d.name} declared twice")
            self.decls[d.name] = d
        self.designations = designations
        self._check_hierarchy()
        self._ancestors: Dict[str, Tuple[str, ...]] = {OBJECT: (OBJECT,)}
        self._methods: Dict[str, Dict[str, Tuple[str, MethodDecl]]] = {OBJECT: {}}
        self._fields: Dict[str, Tuple[Tuple[str, object], ...]] = {OBJECT: ()}
        self._build_relations()
        self._check_members()
        self._check_designations()
        self._check_constructor_dependence()
        self._check_mscope()
        self._prot = self._build_prot()

    # -- construction-time checks

    def _check_hierarchy(self):
        for d in self.decls.values():
            if d.super_name != OBJECT and d.super_name not in self.decls:
                raise WellFormednessError("UndeclaredClass", f"superclass {d.super_name} of {d.name} is not declared")
        for name in self.decls:
            seen = {name}
            cur = self.decls[name].super_name
            while cur != OBJECT:
                if cur in seen:
                    raise WellFormednessError("CyclicInheritance", f"cycle through class {name}")
                seen.add(cur)
                cur = self.decls[cur].super_name

    def _build_relations(self):
        """Each class's ancestors, fields (superclass fields first), method
        table (name -> declaring class and declaration, so a name keeps the
        position of its first declaration) and role, in one pass that fills a
        class after its superclass. A field that a superclass already declares
        raises here, root first along the first chain that has one."""
        for name in self.decls:
            chain = []
            while name not in self._ancestors:
                chain.append(name)
                name = self.decls[name].super_name
            for c in reversed(chain):
                decl = self.decls[c]
                sup = decl.super_name
                inherited = self._fields[sup]
                inames = {f for f, _ in inherited}
                for f, _ in decl.fields:
                    if f in inames:
                        raise WellFormednessError(
                            "DuplicateMember", f"field {f} of {c} is already declared in a superclass"
                        )
                self._ancestors[c] = (c,) + self._ancestors[sup]
                self._fields[c] = inherited + decl.fields
                self._methods[c] = {**self._methods[sup], **{m.name: (c, m) for m in decl.methods}}
        d = self.designations
        self._roles = {
            name: "client" if d is None else "owner" if d.own in anc
            else "rep" if any(r in anc for r in d.rep_names()) else "client"
            for name, anc in self._ancestors.items()
        }

    def _check_members(self):
        for d in self.decls.values():
            seen_f = set()
            for f, t in d.fields:
                if f in seen_f:
                    raise WellFormednessError("DuplicateMember", f"field {f} declared twice in {d.name}")
                seen_f.add(f)
                self._check_type_declared(t, f"field {d.name}.{f}")
            seen_m = set()
            for m in d.methods:
                if m.name in seen_m:
                    raise WellFormednessError("DuplicateMember", f"method {m.name} declared twice in {d.name}")
                seen_m.add(m.name)
                self._check_type_declared(m.return_type, f"return type of {d.name}.{m.name}")
                pnames = set()
                for x, t in m.params:
                    if x in ("self", "result"):
                        raise WellFormednessError("BadParameter", f"{d.name}.{m.name}: parameter named {x}")
                    if x in pnames:
                        raise WellFormednessError("BadParameter", f"{d.name}.{m.name}: duplicate parameter {x}")
                    pnames.add(x)
                    self._check_type_declared(t, f"parameter {x} of {d.name}.{m.name}")

    def _check_type_declared(self, t, where: str):
        if isinstance(t, ClassType) and t.name != OBJECT and t.name not in self.decls:
            raise WellFormednessError("UndeclaredClass", f"{where} has undeclared class {t.name}")

    def _check_designations(self):
        d = self.designations
        if d is None:
            return
        for name in (d.own,) + d.rep_names():
            if name not in self.decls:
                raise WellFormednessError("UndeclaredClass", f"designated class {name} is not declared")
        for r in d.rep_names():
            if not self.incomparable_names(d.own, r):
                raise WellFormednessError(
                    "BadModuleScope", f"designated classes must be incomparable: {d.own} vs {r}"
                )

    def _check_constructor_dependence(self):
        # B < C  iff  `x := new B` occurs in the constructor of C or an ancestor
        direct: Dict[str, Set[str]] = {}
        for name in self.decls:
            news = set()
            for cur in self._ancestors[name][:-1]:
                for cmd, _ in A.walk_commands(self.decls[cur].constructor, {}):
                    if isinstance(cmd, A.NewAssign):
                        if cmd.class_name != OBJECT and cmd.class_name not in self.decls:
                            raise WellFormednessError(
                                "UndeclaredClass", f"constructor of {cur} constructs undeclared {cmd.class_name}"
                            )
                        news.add(cmd.class_name)
            direct[name] = news
        self.constructor_deps = direct
        # transitive closure must be irreflexive
        for start in self.decls:
            stack, seen = [start], set()
            while stack:
                cur = stack.pop()
                for nxt in direct.get(cur, ()):
                    if nxt == start:
                        raise WellFormednessError(
                            "CyclicConstructorDependence",
                            f"constructing {start} entails constructing {start} again",
                        )
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)

    def _check_mscope(self):
        has_mscope = any(m.module_scoped for d in self.decls.values() for m in d.methods)
        if has_mscope and self.designations is None:
            raise WellFormednessError(
                "BadModuleScope", "module-scoped methods require owner/rep designations"
            )
        for d in self.decls.values():
            for m in d.methods:
                sup = d.super_name
                if sup != OBJECT:
                    inherited = self.resolve_method(m.name, sup)
                    if inherited is not None and inherited[1].module_scoped != m.module_scoped:
                        raise WellFormednessError(
                            "BadModuleScope",
                            f"{d.name}.{m.name} disagrees with the inherited declaration on module scope",
                        )
                if not m.module_scoped:
                    continue
                if self.is_client_class(d.name):
                    raise WellFormednessError(
                        "BadModuleScope", f"module-scoped {d.name}.{m.name} outside owner/rep classes"
                    )
                des = self.designations
                for b in (des.own,) + des.rep_names():
                    for cur in self._ancestors[b][1:-1]:
                        if self.decls[cur].method(m.name) is not None:
                            raise WellFormednessError(
                                "BadModuleScope",
                                f"module-scoped method {m.name} is also declared above {b} (in {cur})",
                            )

    # -- queries

    def declared(self, name: str) -> bool:
        return name == OBJECT or name in self.decls

    def super_of(self, name: str) -> Optional[str]:
        if name == OBJECT:
            return None
        return self.decls[name].super_name

    def ancestors(self, name: str) -> Tuple[str, ...]:
        """`name` and its proper ancestors up to and including Object."""
        return self._ancestors[name]

    def subtype_names(self, c: str, d: str) -> bool:
        return c == d or d in self._ancestors[c]

    def subtype(self, t, u) -> bool:
        if isinstance(t, NullType):
            return isinstance(u, (ClassType, NullType))
        if isinstance(t, PrimType) or isinstance(u, (PrimType, NullType)):
            return t == u
        return self.subtype_names(t.name, u.name)

    def incomparable_names(self, c: str, d: str) -> bool:
        return not self.subtype_names(c, d) and not self.subtype_names(d, c)

    def fields(self, name: str) -> Tuple[Tuple[str, object], ...]:
        """All fields of `name`, superclass fields first, declaration order."""
        return self._fields[name]

    def dfields(self, name: str) -> Tuple[Tuple[str, object], ...]:
        if name == OBJECT:
            return ()
        return self.decls[name].fields

    def resolve_method(self, mname: str, cname: str) -> Optional[Tuple[str, MethodDecl]]:
        """Least ancestor of `cname` declaring `mname`, with its declaration."""
        return self._methods[cname].get(mname)

    def mtype(self, mname: str, cname: str):
        r = self.resolve_method(mname, cname)
        if r is None:
            return None
        m = r[1]
        return tuple(t for _, t in m.params), m.return_type

    def pars(self, mname: str, cname: str):
        r = self.resolve_method(mname, cname)
        if r is None:
            return None
        return tuple(x for x, _ in r[1].params)

    def mscope(self, mname: str, cname: str) -> bool:
        r = self.resolve_method(mname, cname)
        return bool(r and r[1].module_scoped)

    def method_names(self, cname: str) -> List[str]:
        """Root first, each name at its first declaration."""
        return list(self._methods[cname])

    # -- roles (meaningful only with designations)

    def role(self, name: str) -> str:
        """"owner" below the owner class, else "rep" below a rep class, else
        "client"; every class is a client without designations."""
        return self._roles[name]

    def is_owner_class(self, name: str) -> bool:
        return self.role(name) == "owner"

    def is_rep_class(self, name: str) -> bool:
        return self.role(name) == "rep"

    def is_client_class(self, name: str) -> bool:
        return self.role(name) == "client"

    def comparable_to_rep(self, t) -> bool:
        """Is `t` a class type comparable to some designated rep class?
        Primitives are incomparable to every class."""
        d = self.designations
        if d is None or not isinstance(t, ClassType):
            return False
        return any(not self.incomparable_names(t.name, r) for r in d.rep_names())

    def comparable_to_own(self, t) -> bool:
        d = self.designations
        if d is None or not isinstance(t, ClassType):
            return False
        return not self.incomparable_names(t.name, d.own)

    # -- prot: module-scoped owner methods that sub-owners depend on

    def prot_methods(self) -> Set[Tuple[str, str]]:
        """Module-scoped methods of the owner class that some proper subclass
        of the owner calls or overrides."""
        return self._prot

    def _build_prot(self) -> Set[Tuple[str, str]]:
        result: Set[Tuple[str, str]] = set()
        d = self.designations
        if d is None:
            return result
        own = d.own
        mscoped = {m for m in self.method_names(own) if self.mscope(m, own)}
        if mscoped:
            for cname, decl in self.decls.items():
                if cname == own or not self.subtype_names(cname, own):
                    continue
                for m in decl.methods:
                    if m.name in mscoped:
                        result.add((m.name, own))
                    for cmd, _ in A.walk_commands(m.body, {}):
                        if isinstance(cmd, (A.CallAssign, A.SuperCallAssign)) and cmd.method in mscoped:
                            result.add((cmd.method, own))
        return result


def build_class_table(decls: List[ClassDecl], designations: Optional[Designations] = None) -> ClassTable:
    return ClassTable(list(decls), designations)


def load_table(path: str, designations: Optional[Designations] = None) -> ClassTable:
    """Read a `.jcore` file, parse and desugar it, and build its class table."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            src = f.read()
        except UnicodeDecodeError as exc:
            raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return build_class_table(parse_and_desugar(src), designations)
