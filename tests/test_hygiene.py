"""Source hygiene of the `jcore` package: no unused imports, no imports
inside functions, no test-only functions, classes or methods, no unused
parameters and one way to make a value type, checked on the syntax tree of
every module."""

import ast
import dataclasses
import importlib
import os
from collections import Counter

import jcore
import jcore.ast

PACKAGE_DIR = os.path.dirname(jcore.__file__)
BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# (module path relative to the package, function, imported module): hashlib
# loads OpenSSL, which only traces need, so state_digest imports it late
LOCAL_IMPORTS_ALLOWED = {("interp.py", "state_digest", "hashlib")}


def _modules():
    for root, dirs, files in os.walk(PACKAGE_DIR):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    yield os.path.relpath(path, PACKAGE_DIR), ast.parse(f.read(), path)


def _bound_names(node):
    """The names an import statement binds, each with the module it names."""
    for alias in node.names:
        if isinstance(node, ast.Import):
            yield (alias.asname or alias.name.split(".")[0]), alias.name
        else:
            yield (alias.asname or alias.name), node.module or "."


def test_package_is_found():
    assert sorted(rel for rel, _ in _modules())[:2] == ["__init__.py", "ast.py"]


def test_no_unused_imports():
    unused = []
    for rel, tree in _modules():
        if rel == "__init__.py":
            continue  # the package's public names are re-exports
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{rel}:{node.lineno} {name}"
                    for name, module in _bound_names(node)
                    if name not in used and module != "__future__"
                ]
    assert unused == []


def test_no_function_local_imports():
    local = []
    for rel, tree in _modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    local += [
                        f"{rel}:{node.lineno} {fn.name} imports {module}"
                        for _, module in _bound_names(node)
                        if (rel, fn.name, module) not in LOCAL_IMPORTS_ALLOWED
                    ]
    assert local == []


def _node_types_named(expr, nodes):
    """The AST node classes `expr` names, as `A.<Node>` or bare `<Node>`."""
    named = set()
    for n in ast.walk(expr):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "A":
            named.add(n.attr)
        elif isinstance(n, ast.Name):
            named.add(n.id)
    return named & nodes


def test_interpreter_dispatches_on_node_type_only_in_the_compiler():
    """`interp.py` tests a syntax node's type only in `_compile`, which runs
    once per node: no `isinstance(x, A.<Node>)` and no `type(x) is A.<Node>`
    anywhere else, so no tree walk is left in the package (the walker is the
    test oracle, `helpers.TreeWalkRuntime`)."""
    nodes = {name for name, cls in vars(jcore.ast).items()
             if isinstance(cls, type) and "span" in getattr(cls, "__dataclass_fields__", {})}
    assert {"Var", "Seq", "CallAssign", "MethodDecl"} <= nodes
    tree = dict(_modules())["interp.py"]
    (builder,) = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_compile"]
    in_builder = {id(n) for n in ast.walk(builder)}
    tests = [n for n in ast.walk(tree)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "isinstance"
             and _node_types_named(n.args[1], nodes)
             or isinstance(n, ast.Compare) and _node_types_named(n, nodes)]
    assert [f"interp.py:{n.lineno}" for n in tests if id(n) not in in_builder] == []
    assert len(tests) >= 15  # the builder's own dispatch


def _referenced(tree):
    """The names a syntax tree reads: bare names and attribute names."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}


def _attributes(tree):
    """The attribute names a syntax tree reads, each with the number of
    times it reads it."""
    return Counter(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))


def _bench_names(read=_referenced):
    """The names the bench scripts use (as `read` finds them in a tree), with
    every part of the dotted names in `tracing.WRAPPED`, which the tracer
    looks up as strings."""
    names = set()
    for name in sorted(os.listdir(BENCH_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(BENCH_DIR, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        names.update(read(tree))
        for n in tree.body:
            if isinstance(n, ast.Assign) and [t.id for t in n.targets if isinstance(t, ast.Name)] == ["WRAPPED"]:
                names |= {part for c in ast.walk(n.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)
                          for part in c.value.split(".")}
    return names


def test_no_test_only_code_in_the_package():
    """Every top-level function and class of the package is used by the
    package outside its own body, used by the bench, or exported by
    `jcore/__init__.py`; every public method of a class is read by the
    package outside its own body or by the bench. Code only the tests call
    (oracles, the printer, the entries for one command or expression) lives
    in `tests/`."""
    modules = dict(_modules())
    exported = {alias.name for n in modules["__init__.py"].body if isinstance(n, ast.ImportFrom) for alias in n.names}
    assert {"run", "confine_heap", "client_equiv"} <= exported
    bench = _bench_names()
    assert {"load_sim_manifest", "run_sim_manifest", "invoke"} <= bench
    # the names each top-level statement reads, so a definition's own body can be left out
    reads = [(stmt, _referenced(stmt)) for tree in modules.values() for stmt in tree.body]
    unused = []
    for rel, tree in modules.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if d.name in exported or d.name in bench:
                continue
            if not any(d.name in names for stmt, names in reads if stmt is not d):
                unused.append(f"{rel}:{d.lineno} {d.name}")
    read, bench_read = sum(map(_attributes, modules.values()), Counter()), _bench_names(_attributes)
    for rel, tree in modules.items():
        for c in tree.body:
            for fn in c.body if isinstance(c, ast.ClassDef) else ():
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("_"):
                    continue
                if fn.name not in bench_read and read[fn.name] == _attributes(fn)[fn.name]:
                    unused.append(f"{rel}:{fn.lineno} {c.name}.{fn.name}")
    assert unused == []


def _names(exprs):
    """The bare names among `exprs`."""
    return {e.id for e in exprs if isinstance(e, ast.Name)}


def _protocol_methods(modules):
    """(class, method) pairs whose signature a protocol fixes, not the body:
    the `InterpHooks` methods and their overrides, and the `BasicCoupling`
    predicates (as `(None, function)`)."""
    classes = [n for tree in modules.values() for n in tree.body if isinstance(n, ast.ClassDef)]
    (hooks,) = [c for c in classes if c.name == "InterpHooks"]
    hook_names = {fn.name for fn in hooks.body if isinstance(fn, ast.FunctionDef)}
    hook_classes = {c.name for c in classes if c is hooks or "InterpHooks" in _names(c.bases)}
    pairs = {(c, m) for c in hook_classes for m in hook_names}
    for tree in modules.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and _names([call.func]) == {"BasicCoupling"}:
                pairs.add((None, call.args[2].id))  # BasicCoupling(name, target_pair, predicate)
    return pairs


def test_no_unused_parameters():
    """Every parameter of every module- or class-level function of the
    package is read in its body, save for a method's receiver, dunders and
    the methods whose signature a protocol fixes."""
    modules = dict(_modules())
    protocol = _protocol_methods(modules)
    assert len(protocol) >= 4 * 5 + 4  # four hook classes, five hooks; four couplings
    unused = []
    for rel, tree in modules.items():
        defs = [(None, d) for d in tree.body]
        defs += [(c.name, d) for c in tree.body if isinstance(c, ast.ClassDef) for d in c.body]
        for owner, fn in defs:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.startswith("__") and fn.name.endswith("__") or (owner, fn.name) in protocol:
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
            if owner and "staticmethod" not in _names(fn.decorator_list):
                params = params[1:]  # the receiver, `self` or `cls`
            read = {n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unused += [f"{rel}:{fn.lineno} {fn.name}({p})" for p in params if p not in read]
    assert unused == []


# The tuple classes: heaps are dicts keyed and sorted by `Location`, and the
# tokenizer builds tokens and spans with `tuple.__new__`.
TUPLE_CLASSES = {"Location", "Span", "Token"}


def _module_name(rel):
    """`jcore.x.y` for `x/y.py`, `jcore.x` for `x/__init__.py`."""
    return ".".join(["jcore", *rel[:-3].split(os.sep)]).removesuffix(".__init__")


def test_one_way_to_make_a_value_type():
    """Every value class is a record (`ast.record` on an `ast.Record` base),
    save the three tuple classes, which `collections.namedtuple` makes:
    `dataclass` is named only inside `ast.record`, and nothing uses
    `typing.NamedTuple`."""
    modules = dict(_modules())
    classes = []
    for rel in modules:
        module = importlib.import_module(_module_name(rel))
        classes += [c for c in vars(module).values() if isinstance(c, type) and c.__module__ == module.__name__]
    assert {"PrimType", "Step", "CorpusRecord"} <= {c.__name__ for c in classes}
    tuples = {c.__name__ for c in classes if issubclass(c, tuple)}
    (record,) = [fn for fn in modules["ast.py"].body if isinstance(fn, ast.FunctionDef) and fn.name == "record"]
    in_record = {id(n) for n in ast.walk(record)}
    nodes = [(rel, n) for rel, tree in modules.items() for n in ast.walk(tree)]
    found = {
        "dataclasses that are not records": [
            c.__name__ for c in classes if dataclasses.is_dataclass(c) and not issubclass(c, jcore.ast.Record)],
        "tuple classes": sorted(tuples ^ TUPLE_CLASSES),
        "NamedTuple classes": [f"{rel} {n.name}" for rel, n in nodes if isinstance(n, ast.ClassDef)
                               and any("NamedTuple" in _referenced(base) for base in n.bases)],
        "NamedTuple imports": [f"{rel}:{n.lineno}" for rel, n in nodes if isinstance(n, (ast.Import, ast.ImportFrom))
                               and "NamedTuple" in {alias.name.split(".")[-1] for alias in n.names}],
        "dataclass outside ast.record": [f"{rel}:{n.lineno}" for rel, n in nodes if isinstance(n, ast.Name)
                                         and n.id == "dataclass" and id(n) not in in_record],
    }
    assert found == {problem: [] for problem in found}
