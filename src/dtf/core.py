"""Core term language: names, types, terms, theories, contexts.

Binders are represented by names, not de Bruijn indices, so that printed
output keeps the variable names the user wrote; alpha_equal does the
canonical comparison and substitution freshens on capture.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from .diagnostics import Span


class NameKind(Enum):
    TYPE = "type-symbol"
    CONST = "constant"
    VAR = "variable"


@dataclass(frozen=True)
class Name:
    text: str
    kind: NameKind

    def __str__(self) -> str:
        return self.text


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Node:
    """Base of the types, terms and declarations: where the node was written,
    left out of equality."""

    span: Span | None = field(default=None, compare=False, kw_only=True)


class Type(Node):
    """A base type applied to term arguments, a dependent product, or $o."""


@dataclass(frozen=True)
class BaseApp(Type):
    """A declared base-type symbol applied to term arguments, e.g. list @ N."""

    head: Name
    args: tuple = ()


@dataclass(frozen=True)
class Pi(Type):
    """Dependent function type; prints as A > B when the binder is unused."""

    binder: Name
    domain: Type
    codomain: Type

    @property
    def body(self) -> Type:
        """The codomain: the scope of the binder, named as in Binder."""
        return self.codomain


class BoolType(Type):
    pass


BOOL = BoolType()

# $tType is representable only so that rank-1 polymorphic declarations can be
# parsed and printed back; both checkers reject problems that contain it.
TYPE_KIND = BaseApp(Name("$tType", NameKind.TYPE))


def is_type_kind(ty: Type) -> bool:
    return isinstance(ty, BaseApp) and ty.head.text == "$tType"


# ---------------------------------------------------------------------------
# Terms


class Term(Node):
    """A term; the formulae are the terms of type $o."""


@dataclass(frozen=True)
class Var(Term):
    name: Name


@dataclass(frozen=True)
class Const(Term):
    name: Name


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Binder(Term):
    """A variable, its type (`domain`) and the scope it is bound in (`body`).

    The subclasses are the term binders; `op` is their TPTP symbol.  Equality
    and repr still tell them apart.
    """

    binder: Name
    domain: Type
    body: Term


class Lam(Binder):
    op = "^"


class Forall(Binder):
    op = "!"


class Exists(Binder):
    op = "?"


class Choice(Binder):
    """Hilbert choice: some x of the domain satisfying the body."""

    op = "@+"


@dataclass(frozen=True)
class Connective(Term):
    """A binary connective; `op` is the TPTP symbol of each subclass."""

    left: Term
    right: Term


class Implies(Connective):
    op = "=>"


class And(Connective):
    op = "&"


class Or(Connective):
    op = "|"


@dataclass(frozen=True)
class Not(Term):
    arg: Term


@dataclass(frozen=True)
class Eq(Term):
    """Typed equality; `at` is the type both sides inhabit.

    Surface syntax writes bare `=`; elaboration fills `at` from the inferred
    type of the left operand. It can be None only on terms that fail the
    simply typed skeleton, which the checkers reject before anything reads it.
    """

    left: Term
    right: Term
    at: Type | None = None


class Top(Term):
    pass


class Bottom(Term):
    pass


# ---------------------------------------------------------------------------
# Declarations, theories, contexts


@dataclass(frozen=True)
class Decl(Node):
    """Base of the declarations: also the file each was read from, left out of equality."""

    path: str | None = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class TypeDecl(Decl):
    """Base-type symbol with a telescope of term-argument types."""

    name: Name
    telescope: tuple = ()  # tuple[(Name, Type), ...]
    label: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ConstDecl(Decl):
    name: Name
    ty: Type
    label: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Axiom(Decl):
    label: str
    formula: Term
    role: str = "axiom"  # axiom | lemma | hypothesis | definition


@dataclass(frozen=True)
class Theory:
    decls: tuple = ()


@dataclass(frozen=True)
class VarDecl:
    name: Name
    ty: Type


@dataclass(frozen=True)
class Assumption:
    """A formula assumed in context; label is set when seeded from an axiom."""

    formula: Term
    label: str | None = None


@dataclass(frozen=True)
class Context:
    entries: tuple = ()

    def push_var(self, name: Name, ty: Type) -> "Context":
        return Context(self.entries + (VarDecl(name, ty),))

    def push_assumption(self, formula: Term, label: str | None = None) -> "Context":
        return Context(self.entries + (Assumption(formula, label),))

    def var_type(self, text: str) -> Type | None:
        for entry in reversed(self.entries):
            if isinstance(entry, VarDecl) and entry.name.text == text:
                return entry.ty
        return None


# ---------------------------------------------------------------------------
# Generic structure, free variables and fresh names


def children(t) -> tuple:
    """The immediate subterms and subtypes of a node, in source order.

    A binder's variable is bound in its last child; `Eq.at` is last and only
    present when set.
    """
    if isinstance(t, (Var, Const, Top, Bottom, BoolType)):
        return ()
    if isinstance(t, App):
        return (t.fun, t.arg)
    if isinstance(t, (Binder, Pi)):
        return (t.domain, t.body)
    if isinstance(t, Connective):
        return (t.left, t.right)
    if isinstance(t, Not):
        return (t.arg,)
    if isinstance(t, Eq):
        return (t.left, t.right) if t.at is None else (t.left, t.right, t.at)
    if isinstance(t, BaseApp):
        return t.args
    raise TypeError(f"children: unexpected node {t!r}")


def map_children(t, f, *args):
    """Rebuild a leaf, connective, negation or equation with each child c
    replaced by f(c, *args); t itself when every f(c, *args) is c.  Per-node
    walks handle their frequent node kinds inline, which is faster, and call
    this for the rest.
    """
    if isinstance(t, Connective):
        left, right = f(t.left, *args), f(t.right, *args)
        if left is t.left and right is t.right:
            return t
        return type(t)(left, right, span=t.span)
    if isinstance(t, Eq):
        left, right = f(t.left, *args), f(t.right, *args)
        at = None if t.at is None else f(t.at, *args)
        if left is t.left and right is t.right and at is t.at:
            return t
        return Eq(left, right, at, span=t.span)
    if isinstance(t, Not):
        arg = f(t.arg, *args)
        return t if arg is t.arg else Not(arg, span=t.span)
    if isinstance(t, (Var, Const, Top, Bottom, BoolType)):
        return t
    raise TypeError(f"map_children: unexpected node {t!r}")


def free_vars(t) -> frozenset:
    """Free variable names (texts) of a term or type."""
    acc: set = set()
    _free_into(t, acc, ())
    return frozenset(acc)


def _free_into(t, acc: set, bound: tuple) -> None:
    if isinstance(t, Var):
        if t.name.text not in bound:
            acc.add(t.name.text)
    elif isinstance(t, (Const, BoolType)):
        pass
    elif isinstance(t, App):
        _free_into(t.fun, acc, bound)
        _free_into(t.arg, acc, bound)
    elif isinstance(t, (Binder, Pi)):
        _free_into(t.domain, acc, bound)
        _free_into(t.body, acc, bound + (t.binder.text,))
    elif isinstance(t, BaseApp):
        if t.head.kind is NameKind.VAR and t.head.text not in bound:
            acc.add(t.head.text)
        for a in t.args:
            _free_into(a, acc, bound)
    else:
        for child in children(t):
            _free_into(child, acc, bound)


def term_size(t) -> int:
    """Node count of a term or type.

    Every variable, constant, connective, quantifier, application, and type
    former counts as one node. Inferred equality annotations (`Eq.at`) are
    elaboration metadata, not written syntax, and are not counted.
    """
    if isinstance(t, (Var, Const, Top, Bottom, BoolType)):
        return 1
    if isinstance(t, App):
        return 1 + term_size(t.fun) + term_size(t.arg)
    if isinstance(t, (Binder, Pi)):
        return 1 + term_size(t.domain) + term_size(t.body)
    if isinstance(t, (Connective, Eq)):
        return 1 + term_size(t.left) + term_size(t.right)
    if isinstance(t, Not):
        return 1 + term_size(t.arg)
    if isinstance(t, BaseApp):
        return 1 + sum(term_size(a) for a in t.args)
    raise TypeError(f"term_size: unexpected node {t!r}")


def fresh_name(base: str, avoid) -> str:
    """Deterministic fresh variant of base not occurring in avoid."""
    if base not in avoid:
        return base
    stem = base.rstrip("0123456789") or base
    for i in itertools.count():
        candidate = f"{stem}{i}"
        if candidate not in avoid:
            return candidate
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Substitution (capture avoiding)


def substitute(t, x: Name, u: Term):
    """Replace the free variable x by u in a term or type.

    Subtrees in which x is not free are shared, not copied: the result is t
    itself when x is not free in t.
    """
    return _substitute(t, x, u, [])


def _substitute(t, x: Name, u: Term, u_free: list):
    # u_free holds free_vars(u) once the first binder needs it: u may be far
    # larger than a t without binders, such as an instantiated codomain.
    if isinstance(t, Var):
        return u if t.name == x else t
    if isinstance(t, (Const, Top, Bottom, BoolType)):
        return t
    if isinstance(t, App):
        fun = _substitute(t.fun, x, u, u_free)
        arg = _substitute(t.arg, x, u, u_free)
        if fun is t.fun and arg is t.arg:
            return t
        return App(fun, arg, span=t.span)
    if isinstance(t, BaseApp):
        args = tuple(_substitute(a, x, u, u_free) for a in t.args)
        if all(new is old for new, old in zip(args, t.args)):
            return t
        return BaseApp(t.head, args, span=t.span)
    if isinstance(t, (Binder, Pi)):
        domain = _substitute(t.domain, x, u, u_free)
        binder, body = t.binder, t.body
        if binder == x:
            return t if domain is t.domain else type(t)(binder, domain, body, span=t.span)
        if not u_free:
            u_free.append(free_vars(u))
        if binder.text in u_free[0] and x.text in free_vars(body):
            renamed = Name(fresh_name(binder.text, u_free[0] | free_vars(body) | {x.text}), binder.kind)
            body = substitute(body, binder, Var(renamed))
            binder = renamed
        new_body = _substitute(body, x, u, u_free)
        if binder is t.binder and domain is t.domain and new_body is t.body:
            return t
        return type(t)(binder, domain, new_body, span=t.span)
    return map_children(t, _substitute, x, u, u_free)


# ---------------------------------------------------------------------------
# Alpha equality


def alpha_equal(a, b) -> bool:
    """Alpha equivalence of two terms or two types (Eq annotations included)."""
    return _alpha(a, b, {}, {})


def _name_matches(a: Name, b: Name, lr: dict, rl: dict) -> bool:
    la = lr.get(a.text)
    lb = rl.get(b.text)
    if la is None and lb is None:
        return a == b
    return la == b.text and lb == a.text


def _alpha(a, b, lr: dict, rl: dict) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        return _name_matches(a.name, b.name, lr, rl)
    if isinstance(a, Const):
        return a.name == b.name
    if isinstance(a, App):
        return _alpha(a.fun, b.fun, lr, rl) and _alpha(a.arg, b.arg, lr, rl)
    if isinstance(a, BaseApp):
        # Heads may be bound rank-1 type variables, so route them through the
        # renaming environment like variables.
        if not _name_matches(a.head, b.head, lr, rl):
            return False
        if len(a.args) != len(b.args):
            return False
        return all(_alpha(x, y, lr, rl) for x, y in zip(a.args, b.args))
    if isinstance(a, (Binder, Pi)):
        if not _alpha(a.domain, b.domain, lr, rl):
            return False
        lr2 = dict(lr)
        rl2 = dict(rl)
        lr2[a.binder.text] = b.binder.text
        rl2[b.binder.text] = a.binder.text
        return _alpha(a.body, b.body, lr2, rl2)
    left, right = children(a), children(b)
    return len(left) == len(right) and all(_alpha(x, y, lr, rl) for x, y in zip(left, right))


def alpha_key(t) -> object:
    """A hashable name-free key: alpha_key(a) == alpha_key(b) exactly when
    alpha_equal(a, b).

    A bound name becomes the de Bruijn level of its binder (how many binders
    enclose that binder), a free name stays as its Name, every other node is a
    tuple led by its class, and spans are left out.  Heads of base types go
    through the binders too, as in alpha_equal.
    """
    return _key(t, {}, 0)


def _key(t, env: dict, depth: int):
    if isinstance(t, Var):
        return env.get(t.name.text, t.name)
    if isinstance(t, Const):
        return (Const, t.name)
    if isinstance(t, App):
        return (App, _key(t.fun, env, depth), _key(t.arg, env, depth))
    if isinstance(t, BaseApp):
        return (BaseApp, env.get(t.head.text, t.head), *(_key(a, env, depth) for a in t.args))
    if isinstance(t, (Binder, Pi)):
        return (type(t), _key(t.domain, env, depth),
                _key(t.body, {**env, t.binder.text: depth}, depth + 1))
    # One frame per level, as in _norm: a normal form can always be keyed.
    if isinstance(t, Connective):
        return (type(t), _key(t.left, env, depth), _key(t.right, env, depth))
    if isinstance(t, Eq):
        return (Eq, _key(t.left, env, depth), _key(t.right, env, depth),
                None if t.at is None else _key(t.at, env, depth))
    if isinstance(t, Not):
        return (Not, _key(t.arg, env, depth))
    return (type(t), *(_key(c, env, depth) for c in children(t)))


# ---------------------------------------------------------------------------
# Beta-eta normalization


class NormalizationBudgetExceeded(Exception):
    """Internal error: the reduction step budget ran out."""


def beta_eta_normalize(t):
    """Normal-order beta reduction followed by eta contraction.

    Works on terms and on types (whose argument terms are normalized).
    Idempotent and alpha-stable; raises NormalizationBudgetExceeded when the
    budget of 10,000 reduction steps runs out (or the term grows past what the
    interpreter can traverse, which is the same failure for callers).
    """
    budget = [10_000]
    try:
        return _norm(t, budget)
    except RecursionError:
        raise NormalizationBudgetExceeded(
            "beta-eta normalization budget exceeded") from None


def _spend(budget) -> None:
    budget[0] -= 1
    if budget[0] < 0:
        raise NormalizationBudgetExceeded("beta-eta normalization budget exceeded")


def _norm(t, budget):
    # Like substitute, every case returns t itself when no child changed and
    # no redex fired, so a term already in normal form is not copied.
    if isinstance(t, (Var, Const, BoolType)):
        return t
    if isinstance(t, App):
        # Head reduction iterates in place: a looping redex must exhaust the
        # step budget, not the interpreter stack.
        while isinstance(t, App):
            fun = _norm(t.fun, budget)
            if isinstance(fun, Lam):
                _spend(budget)
                t = substitute(fun.body, fun.binder, t.arg)
            else:
                arg = _norm(t.arg, budget)
                if fun is t.fun and arg is t.arg:
                    return t
                return App(fun, arg, span=t.span)
        return _norm(t, budget)
    if isinstance(t, BaseApp):
        args = tuple(_norm(a, budget) for a in t.args)
        if all(new is old for new, old in zip(args, t.args)):
            return t
        return BaseApp(t.head, args, span=t.span)
    if isinstance(t, (Binder, Pi)):
        domain = _norm(t.domain, budget)
        body = _norm(t.body, budget)
        if isinstance(t, Lam) and isinstance(body, App) and isinstance(body.arg, Var) \
                and body.arg.name == t.binder and t.binder.text not in free_vars(body.fun):
            _spend(budget)  # eta: ^ [X: A]: (f @ X) is f when X is not free in f
            return body.fun
        if domain is t.domain and body is t.body:
            return t
        return type(t)(t.binder, domain, body, span=t.span)
    # Formulae come here too: every lookup normalizes its goal and its closed
    # formula (an axiom is normalized once, when declared, and a local
    # assumption once per checker), so connectives and equations stay inline.
    # Inline, they also take one interpreter frame per tree level, as in _key.
    if isinstance(t, Connective):
        left, right = _norm(t.left, budget), _norm(t.right, budget)
        if left is t.left and right is t.right:
            return t
        return type(t)(left, right, span=t.span)
    if isinstance(t, Eq):
        at = None if t.at is None else _norm(t.at, budget)
        left, right = _norm(t.left, budget), _norm(t.right, budget)
        if left is t.left and right is t.right and at is t.at:
            return t
        return Eq(left, right, at, span=t.span)
    return map_children(t, _norm, budget)
