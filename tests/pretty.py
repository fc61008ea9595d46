"""Pretty-printer emitting parseable surface text for core programs.

The output re-parses and re-desugars to the same core AST, which is how the
desugarer's idempotence is checked. Local blocks print as declarations whose
scope runs to the end of the sequence; a block in non-tail position is wrapped
in braces to keep its scope.
"""

from __future__ import annotations

from jcore import ast as A

# precedence levels, loosest first
_EQ, _REL, _ADD, _MUL, _UNARY, _POSTFIX = range(6)


def type_str(t) -> str:
    return str(t)


def expr_str(e, prec: int = _EQ) -> str:
    s, p = _expr(e)
    if p < prec:
        return f"({s})"
    return s


def _expr(e):
    if isinstance(e, A.Var):
        return e.name, _POSTFIX
    if isinstance(e, A.NullLit):
        return "null", _POSTFIX
    if isinstance(e, A.BoolLit):
        return ("true" if e.value else "false"), _POSTFIX
    if isinstance(e, A.IntLit):
        return str(e.value), _POSTFIX
    if isinstance(e, A.UnitLit):
        return "it", _POSTFIX
    if isinstance(e, A.FieldAccess):
        return f"{expr_str(e.target, _POSTFIX)}.{e.fieldname}", _POSTFIX
    if isinstance(e, A.Eq):
        return f"{expr_str(e.left, _REL)} = {expr_str(e.right, _REL)}", _EQ
    if isinstance(e, A.IntOp):
        if e.op == "<":
            return f"{expr_str(e.left, _ADD)} < {expr_str(e.right, _ADD)}", _REL
        if e.op == "mod":
            return f"{expr_str(e.left, _UNARY)} mod {expr_str(e.right, _UNARY)}", _MUL
        return f"{expr_str(e.left, _MUL)} {e.op} {expr_str(e.right, _MUL)}", _ADD
    if isinstance(e, A.InstanceTest):
        return f"{expr_str(e.target, _POSTFIX)} is {e.class_name}", _REL
    if isinstance(e, A.Cast):
        return f"({e.class_name}) {expr_str(e.target, _UNARY)}", _UNARY
    if isinstance(e, A.CallExpr):
        args = ", ".join(expr_str(a) for a in e.args)
        return f"{expr_str(e.receiver, _POSTFIX)}.{e.method}({args})", _POSTFIX
    if isinstance(e, A.SuperCallExpr):
        args = ", ".join(expr_str(a) for a in e.args)
        return f"super.{e.method}({args})", _POSTFIX
    if isinstance(e, A.NewExpr):
        return f"new {e.class_name}", _EQ
    raise TypeError(f"not an expression: {e!r}")


def _stmt_lines(cmd, indent: str):
    """Render one command as a list of lines; blocks assume tail position."""
    if isinstance(cmd, A.Seq):
        lines = []
        items = list(cmd.items)
        for i, it in enumerate(items):
            tail = i == len(items) - 1
            if isinstance(it, (A.LocalBlock, A.Seq)) and not tail:
                lines.append(indent + "{")
                lines.extend(_stmt_lines(it, indent + "  "))
                lines.append(indent + "};")
            else:
                sub = _stmt_lines(it, indent)
                if not tail:
                    sub[-1] += ";"
                lines.extend(sub)
        return lines
    if isinstance(cmd, A.LocalBlock):
        head = f"{indent}{type_str(cmd.var_type)} {cmd.name} := {expr_str(cmd.init)};"
        return [head] + _stmt_lines(cmd.body, indent)
    if isinstance(cmd, A.Skip):
        return [indent + "skip"]
    if isinstance(cmd, A.Abort):
        return [indent + "abort"]
    if isinstance(cmd, A.Assign):
        return [f"{indent}{cmd.name} := {expr_str(cmd.expr)}"]
    if isinstance(cmd, A.FieldAssign):
        return [f"{indent}{expr_str(cmd.target, _POSTFIX)}.{cmd.fieldname} := {expr_str(cmd.expr)}"]
    if isinstance(cmd, A.NewAssign):
        return [f"{indent}{cmd.name} := new {cmd.class_name}"]
    if isinstance(cmd, A.CallAssign):
        args = ", ".join(expr_str(a) for a in cmd.args)
        return [f"{indent}{cmd.name} := {expr_str(cmd.receiver, _POSTFIX)}.{cmd.method}({args})"]
    if isinstance(cmd, A.SuperCallAssign):
        args = ", ".join(expr_str(a) for a in cmd.args)
        return [f"{indent}{cmd.name} := super.{cmd.method}({args})"]
    if isinstance(cmd, A.If):
        lines = [f"{indent}if {expr_str(cmd.cond)} then"]
        lines.extend(_stmt_lines(cmd.then_cmd, indent + "  "))
        lines.append(indent + "else")
        lines.extend(_stmt_lines(cmd.else_cmd, indent + "  "))
        lines.append(indent + "fi")
        return lines
    if isinstance(cmd, A.While):
        lines = [f"{indent}while {expr_str(cmd.cond)} do"]
        lines.extend(_stmt_lines(cmd.body, indent + "  "))
        lines.append(indent + "od")
        return lines
    raise TypeError(f"not a command: {cmd!r}")


def command_str(cmd, indent: str = "") -> str:
    return "\n".join(_stmt_lines(cmd, indent))


def method_str(m: A.MethodDecl, indent: str = "  ") -> str:
    params = ", ".join(f"{type_str(t)} {x}" for x, t in m.params)
    kw = "module " if m.module_scoped else ""
    head = f"{indent}{kw}{type_str(m.return_type)} {m.name}({params}) {{"
    body = command_str(m.body, indent + "  ")
    return f"{head}\n{body}\n{indent}}}"


def class_str(c: A.ClassDecl) -> str:
    parts = [f"class {c.name} extends {c.super_name} {{"]
    for fname, ftype in c.fields:
        parts.append(f"  {type_str(ftype)} {fname};")
    if not isinstance(c.constructor, A.Skip):
        parts.append("  con {")
        parts.append(command_str(c.constructor, "    "))
        parts.append("  }")
    for m in c.methods:
        parts.append(method_str(m))
    parts.append("}")
    return "\n".join(parts)


def program_str(decls) -> str:
    return "\n\n".join(class_str(c) for c in decls) + "\n"
