"""Shallow (decidable) type checking over dependency-erased skeletons.

A skeleton is a simple type obtained by dropping every term argument from a
base type and flattening dependent products into plain arrows.  Checking
skeletons catches arity and head mismatches without proving anything.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    App,
    Axiom,
    BaseApp,
    Binder,
    BoolType,
    Bottom,
    Choice,
    Connective,
    Const,
    ConstDecl,
    Eq,
    Lam,
    Name,
    Not,
    Pi,
    Term,
    Top,
    Type,
    TypeDecl,
    Var,
    children,
    is_type_kind,
)
from .diagnostics import Diagnostic, error
from .syntax import locate


# ---------------------------------------------------------------------------
# Simple types: named tuples of different lengths, so no two kinds compare equal


class Base(NamedTuple):
    head: Name

    def __str__(self) -> str:
        return self.head.text


class Arrow(NamedTuple):
    arg: Base | Arrow | SBool
    res: Base | Arrow | SBool

    def __str__(self) -> str:
        arg = f"({self.arg})" if isinstance(self.arg, Arrow) else str(self.arg)
        return f"{arg} > {self.res}"


class SBool(NamedTuple):
    def __str__(self) -> str:
        return "$o"


BOOL_SKEL = SBool()


def skeletonize(ty: Type) -> Base | Arrow | SBool:
    """Drop term arguments and dependencies from a type."""
    if isinstance(ty, BaseApp):
        return Base(ty.head)
    if isinstance(ty, Pi):
        return Arrow(skeletonize(ty.domain), skeletonize(ty.codomain))
    if isinstance(ty, BoolType):
        return BOOL_SKEL
    raise TypeError(f"skeletonize: unexpected type {ty!r}")


# ---------------------------------------------------------------------------
# Checking


class _ShallowChecker:
    def __init__(self, texts: dict):
        self.texts = texts  # path -> text, against which a node's offset is located
        self.path: str | None = None  # of the declaration being checked
        self.diagnostics: list[Diagnostic] = []
        self.type_arity: dict = {}   # text -> tuple of telescope skeletons
        self.const_skel: dict = {}   # text -> skeleton

    def report(self, message: str, span: int | None) -> None:
        self.diagnostics.append(error(message, locate(self.texts.get(self.path), span), self.path))

    # -- types ------------------------------------------------------------

    def check_type(self, ty: Type, env: dict) -> bool:
        if isinstance(ty, BoolType):
            return True
        if isinstance(ty, BaseApp):
            expected = self.type_arity.get(ty.head.text)
            if expected is None:
                if ty.head.kind.value == "variable":
                    self.report(f"type variable {ty.head.text!r} is not supported here", ty.span)
                else:
                    self.report(f"unknown type symbol {ty.head.text!r}", ty.span)
                return False
            if len(ty.args) != len(expected):
                self.report(
                    f"type {ty.head.text!r} expects {len(expected)} "
                    f"argument{'s' if len(expected) != 1 else ''}, got {len(ty.args)}",
                    ty.span)
                return False
            ok = True
            for i, (arg, want) in enumerate(zip(ty.args, expected), start=1):
                got = self.infer(arg, env)
                if got is None:
                    ok = False
                elif got != want:
                    self.report(
                        f"argument {i} of type {ty.head.text!r} has skeleton "
                        f"{got}, expected {want}", ty.span if arg.span is None else arg.span)
                    ok = False
            return ok
        if isinstance(ty, Pi):
            ok = self.check_type(ty.domain, env)
            env2 = dict(env)
            env2[ty.binder.text] = skeletonize(ty.domain)
            return self.check_type(ty.codomain, env2) and ok
        raise TypeError(f"check_type: unexpected type {ty!r}")

    # -- terms ------------------------------------------------------------

    def infer(self, t: Term, env: dict):
        """Infer the skeleton of t; None when an error was already reported."""
        if isinstance(t, Var):
            skel = env.get(t.name.text)
            if skel is None:
                self.report(f"unbound variable {t.name.text!r}", t.span)
            return skel
        if isinstance(t, Const):
            skel = self.const_skel.get(t.name.text)
            if skel is None:
                self.report(f"unknown constant {t.name.text!r}", t.span)
            return skel
        if isinstance(t, App):
            fun = self.infer(t.fun, env)
            arg = self.infer(t.arg, env)
            if fun is None or arg is None:
                return None
            if not isinstance(fun, Arrow):
                self.report(f"term of skeleton {fun} cannot be applied", t.span)
                return None
            if arg != fun.arg:
                self.report(f"function expects argument skeleton {fun.arg}, got {arg}", t.span)
                return None
            return fun.res
        if isinstance(t, Binder):
            if not self.check_type(t.domain, env):
                return None
            dom = skeletonize(t.domain)
            env2 = dict(env)
            env2[t.binder.text] = dom
            if isinstance(t, Lam):
                body = self.infer(t.body, env2)
                return None if body is None else Arrow(dom, body)
            if not self.infer_bool(t.body, env2, "binder body", t.span):
                return None
            return dom if isinstance(t, Choice) else BOOL_SKEL
        if isinstance(t, Connective):
            oks = [self.infer_bool(side, env, "connective operand", t.span if side.span is None else side.span)
                   for side in (t.left, t.right)]
            return BOOL_SKEL if all(oks) else None
        if isinstance(t, Not):
            return BOOL_SKEL if self.infer_bool(t.arg, env, "negation operand", t.span) else None
        if isinstance(t, Eq):
            left = self.infer(t.left, env)
            right = self.infer(t.right, env)
            if left is None or right is None:
                return None
            if left != right:
                self.report(f"equation sides have different skeletons: {left} vs {right}", t.span)
                return None
            if isinstance(t.at, BoolType) and left != BOOL_SKEL:  # `<=>` relates formulae
                self.report(f"equivalence operands must have skeleton $o, got {left}", t.span)
                return None
            return BOOL_SKEL
        if isinstance(t, (Top, Bottom)):
            return BOOL_SKEL
        raise TypeError(f"infer: unexpected term {t!r}")

    def infer_bool(self, t: Term, env: dict, what: str, span: int | None) -> bool:
        """Infer t, which must have skeleton $o; False after reporting an error."""
        got = self.infer(t, env)
        if got is not None and got != BOOL_SKEL:
            self.report(f"{what} must have skeleton $o, got {got}", span)
            return False
        return got is not None


def find_polymorphic(problem) -> tuple:
    """(span, path) of the first declaration that mentions the kind of types, else
    of the first binder of an axiom or the conjecture that binds a type variable."""

    def mentions_kind(ty: Type) -> bool:
        if is_type_kind(ty):
            return True
        if isinstance(ty, Pi):
            return mentions_kind(ty.domain) or mentions_kind(ty.codomain)
        if isinstance(ty, BaseApp):
            return ty.head.kind.value == "variable"
        return False

    for decl in problem.theory.decls:
        if isinstance(decl, TypeDecl) and any(mentions_kind(ty) for _, ty in decl.telescope):
            return decl.span, decl.path
        if isinstance(decl, ConstDecl) and mentions_kind(decl.ty):
            return decl.span, decl.path
    for decl in problem.decls():
        stack = [decl.formula] if isinstance(decl, Axiom) else []
        while stack:
            t = stack.pop()
            if isinstance(t, Binder) and mentions_kind(t.domain):
                return t.span, decl.path
            stack.extend(reversed(children(t)))
    return None, None


def check_shallow(problem) -> list[Diagnostic]:
    """Skeleton-check every declaration and formula of an elaborated problem.

    Returns an empty list exactly when the problem is shallowly well typed.
    """
    checker = _ShallowChecker(problem.texts)
    if problem.polymorphic:
        span, path = find_polymorphic(problem)
        checker.path = path or problem.path
        checker.report("polymorphic declarations are not supported", span)
        return checker.diagnostics
    for decl in problem.decls():
        checker.path = decl.path or problem.path
        if isinstance(decl, TypeDecl):
            env: dict = {}
            skels: list = []
            for name, ty in decl.telescope:
                checker.check_type(ty, env)
                if is_type_kind(ty):
                    checker.report("polymorphic declarations are not supported", decl.span)
                    return checker.diagnostics
                skel = skeletonize(ty)
                env[name.text] = skel
                skels.append(skel)
            checker.type_arity[decl.name.text] = tuple(skels)
        elif isinstance(decl, ConstDecl):
            checker.check_type(decl.ty, {})
            checker.const_skel[decl.name.text] = skeletonize(decl.ty)
        elif isinstance(decl, Axiom):
            checker.infer_bool(decl.formula, {}, f"formula {decl.label!r}", decl.span)
    return checker.diagnostics
