"""Source hygiene of the `jcore` package: no unused imports and no imports
inside functions, checked on the syntax tree of every module."""

import ast
import os

import jcore
import jcore.ast

PACKAGE_DIR = os.path.dirname(jcore.__file__)

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
