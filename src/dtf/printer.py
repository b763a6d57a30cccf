"""Canonical TPTP printing for elaborated problems.

Output is deliberately conservative: binary connectives and binder bodies are
always parenthesized, applications use explicit '@', and every formula is a
single `thf(...)` annotated line (indented onto a second line when long).
The printed text reparses to an alpha-equal problem.
"""

from __future__ import annotations

import re

from .core import (
    TYPE_KIND,
    App,
    Axiom,
    BaseApp,
    Binder,
    BoolType,
    Bottom,
    Connective,
    Const,
    ConstDecl,
    Eq,
    Not,
    Pi,
    Term,
    Top,
    Type,
    TypeDecl,
    Var,
    children,
    free_vars,
    is_type_kind,
)

_BARE_ATOM = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def atom(text: str) -> str:
    """Render an atomic word, quoting it unless it is a bare lower word.

    A user symbol such as `'$false'` stays quoted: printed bare, it would read
    back as the defined `$false`.
    """
    if _BARE_ATOM.match(text):
        return text
    escaped = text.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


# ---------------------------------------------------------------------------
# Types


def format_type(ty: Type) -> str:
    if isinstance(ty, BoolType):
        return "$o"
    if is_type_kind(ty):
        return "$tType"
    if isinstance(ty, BaseApp):
        head = ty.head.text if ty.head.kind.value == "variable" else atom(ty.head.text)
        if not ty.args:
            return head
        parts = [head] + [_format_operand(a) for a in ty.args]
        return " @ ".join(parts)
    if isinstance(ty, Pi):
        binders: list = []
        while isinstance(ty, Pi):
            binders.append((ty.binder, ty.domain))
            ty = ty.codomain
        return _format_chain(binders, ty)
    raise TypeError(f"format_type: unexpected type {ty!r}")


def _format_chain(binders: list, tail: Type) -> str:
    """Binders (name, domain) then a tail: a dependent `!>` prefix up to the
    last binder that a later type mentions, then plain arrows."""
    last_dependent = -1
    for i, (name, _) in enumerate(binders):
        rest_types = [d for _, d in binders[i + 1:]] + [tail]
        if any(name.text in free_vars(t) for t in rest_types):
            last_dependent = i
    arrow_parts = [_format_component(dom) for _, dom in binders[last_dependent + 1:]]
    arrow_parts.append(_format_component(tail))
    arrow = " > ".join(arrow_parts)
    if last_dependent >= 0:
        group = ", ".join(
            f"{name.text}: {_format_domain(dom)}"
            for name, dom in binders[: last_dependent + 1])
        return f"!> [{group}]: ({arrow})" if len(arrow_parts) > 1 else f"!> [{group}]: {arrow}"
    return arrow


def _format_domain(ty: Type) -> str:
    text = format_type(ty)
    return f"({text})" if isinstance(ty, Pi) else text


def _format_component(ty: Type) -> str:
    text = format_type(ty)
    if isinstance(ty, Pi) or (isinstance(ty, BaseApp) and ty.args):
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Terms

def format_term(t: Term) -> str:
    if isinstance(t, Var) or isinstance(t, Const):
        return t.name.text if isinstance(t, Var) else atom(t.name.text)
    if isinstance(t, Top):
        return "$true"
    if isinstance(t, Bottom):
        return "$false"
    if isinstance(t, App):
        spine: list = []
        fun: Term = t
        while isinstance(fun, App):
            spine.append(fun.arg)
            fun = fun.fun
        spine.reverse()
        parts = [_format_operand(fun)] + [_format_operand(a) for a in spine]
        return " @ ".join(parts)
    if isinstance(t, Binder):
        group: list = []
        body: Term = t
        while type(body) is type(t):
            group.append(f"{body.binder.text}: {_format_domain(body.domain)}")
            body = body.body
        return f"{t.op} [{', '.join(group)}]: ({format_term(body)})"
    if isinstance(t, Connective):
        return f"({_format_operand(t.left)} {t.op} {_format_operand(t.right)})"
    if isinstance(t, Not):
        return f"~ {_format_operand(t.arg)}"
    if isinstance(t, Eq):
        return f"({_format_operand(t.left)} = {_format_operand(t.right)})"
    raise TypeError(f"format_term: unexpected term {t!r}")


def _format_operand(t: Term) -> str:
    """Format a term so it can sit under '@', '=', or a binary connective."""
    text = format_term(t)
    if isinstance(t, (Var, Const, Top, Bottom, Connective, Eq)):
        return text  # atomic, or already parenthesized by format_term
    return f"({text})"


# ---------------------------------------------------------------------------
# Problems


def check_simply_typed(problem) -> None:
    """Raise ValueError if the problem uses dependent types anywhere."""
    for decl in _with_conjecture(problem, "conjecture"):
        check_simple(decl)


def check_simple(node):
    """Raise ValueError if a declaration, type or term is dependently typed; else return it."""
    if isinstance(node, (ConstDecl, Axiom)):
        check_simple(node.ty if isinstance(node, ConstDecl) else node.formula)
    elif isinstance(node, TypeDecl) and node.telescope or isinstance(node, BaseApp) and node.args:
        head = node.name if isinstance(node, TypeDecl) else node.head
        raise ValueError(f"cannot print TH0: type {head.text!r} takes term arguments")
    elif isinstance(node, Pi) and node.binder.text in free_vars(node.codomain):
        raise ValueError(f"cannot print TH0: dependent product over {node.binder.text!r}")
    elif not isinstance(node, TypeDecl):
        for child in children(node):
            check_simple(child)
    return node


def format_annotated(name: str, role: str, body: str, width: int = 80) -> str:
    one_line = f"thf({atom(name)}, {role}, {body})."
    if len(one_line) <= width:
        return one_line
    return f"thf({atom(name)}, {role},\n    {body})."


def decl_line(decl) -> str:
    """Render one declaration as a `thf` line (or two, when long)."""
    if isinstance(decl, Axiom):
        return format_annotated(decl.label, decl.role, format_term(decl.formula))
    is_const = isinstance(decl, ConstDecl)
    ty = format_type(decl.ty) if is_const else _format_chain(list(decl.telescope), TYPE_KIND)
    return format_annotated(decl.label or decl.name.text, "type", f"{atom(decl.name.text)}: {ty}")


def _with_conjecture(problem, role: str) -> tuple:
    """The declarations of a problem, then its conjecture as one more."""
    if problem.conjecture is None:
        return problem.theory.decls
    name = problem.conjecture_name or "goal"
    return (*problem.theory.decls, Axiom(name, problem.conjecture, role))


def print_problem(problem, conjecture_role: str = "conjecture") -> str:
    """Render a problem back to concrete TPTP syntax."""
    return "\n".join(decl_line(d) for d in _with_conjecture(problem, conjecture_role)) + "\n"


def print_th0(problem) -> str:
    """Render a simply typed problem, refusing dependent input."""
    check_simply_typed(problem)
    return print_problem(problem)
