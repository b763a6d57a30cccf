"""Core term language: names, types, terms, theories, contexts.

Binders are represented by names, not de Bruijn indices, so that printed
output keeps the variable names the user wrote; alpha_equal does the
canonical comparison and substitution freshens on capture.
"""

from __future__ import annotations

import gc
import itertools
import sys
from enum import Enum
from operator import attrgetter


class NameKind(Enum):
    TYPE = "type-symbol"
    CONST = "constant"
    VAR = "variable"


_VAR = NameKind.VAR  # read on every BaseApp built: an Enum member is slow to look up


class Record:
    """Base of the immutable records: equal when of one class with equal
    `_fields`, which the hash and the repr read too.  `__init__` writes each slot
    through its descriptor's `__set__`, bound once at module level: half the cost
    of setting it by name past the guard.  Assigning or deleting a field raises."""

    __slots__ = _fields = ()
    _key = staticmethod(lambda record: ())

    def __init_subclass__(cls) -> None:
        if cls.__dict__.get("_fields"):
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Name(Record):
    """A symbol or variable name.  Every lookup compares and hashes one, so both
    are written out; the hash reads the text only."""

    __slots__ = _fields = ("text", "kind")

    def __init__(self, text: str, kind: NameKind):
        _name_text(self, text)
        _name_kind(self, kind)

    def __eq__(self, other):
        if self is other:
            return True
        return other.__class__ is Name and self.text == other.text and self.kind is other.kind

    def __hash__(self) -> int:
        return hash(self.text)

    def __str__(self) -> str:
        return self.text


# ---------------------------------------------------------------------------
# Types


class Node(Record):
    """Base of the types, terms and declarations: where the node was written,
    the offset of its token in its file (see `syntax.locate`), left out of
    equality.  Term and type nodes take it last, and the hot paths pass it
    positionally.

    A term or type node is `ground` when its subtree has no `Var`, no binder
    and no base type headed by a type variable: no name in it is bound or
    free, so substitution and normalization leave it as it is, and it is
    alpha-equal to itself under any renaming.  Leaves and binders carry the
    bit as a class attribute; the other nodes compute it from their children
    when built, and a child without the bit counts as not ground.
    """

    __slots__ = ("span",)

    def __init__(self, span: int | None = None):
        _span(self, span)


class Type(Node):
    """A base type applied to term arguments, a dependent product, or $o."""

    __slots__ = ()


class BaseApp(Type):
    """A declared base-type symbol applied to term arguments, e.g. list @ N."""

    __slots__ = ("head", "args", "ground")
    _fields = ("head", "args")

    def __init__(self, head: Name, args: tuple = (), span: int | None = None):
        _base_head(self, head)
        _base_args(self, args)
        ground = getattr(head, "kind", _VAR) is not _VAR
        for arg in args:
            ground = ground and getattr(arg, "ground", False)
        _base_ground(self, ground)
        _span(self, span)


class BoolType(Type):
    __slots__ = ()
    ground = True


# The slot setters of the records above, which their `__init__`s call.
_name_text, _name_kind, _span = Name.text.__set__, Name.kind.__set__, Node.span.__set__
_base_head, _base_args, _base_ground = BaseApp.head.__set__, BaseApp.args.__set__, BaseApp.ground.__set__
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

    __slots__ = ()


class Var(Term):
    __slots__ = _fields = ("name",)
    ground = False

    def __init__(self, name: Name, span: int | None = None):
        _var_name(self, name)
        _span(self, span)


class Const(Term):
    __slots__ = _fields = ("name",)
    ground = True

    def __init__(self, name: Name, span: int | None = None):
        _const_name(self, name)
        _span(self, span)


class App(Term):
    __slots__ = ("fun", "arg", "ground")
    _fields = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term, span: int | None = None):
        _app_fun(self, fun)
        _app_arg(self, arg)
        _app_ground(self, getattr(fun, "ground", False) and getattr(arg, "ground", False))
        _span(self, span)


class Binder(Term):
    """A variable, its type (`domain`) and the scope it is bound in (`body`).

    The subclasses are the term binders and the dependent product `Pi`; `op`
    is their TPTP symbol.  Equality and repr still tell them apart.
    """

    __slots__ = _fields = ("binder", "domain", "body")
    ground = False

    def __init__(self, binder: Name, domain: Type, body: Term, span: int | None = None):
        _binder_binder(self, binder)
        _binder_domain(self, domain)
        _binder_body(self, body)
        _span(self, span)


class Lam(Binder):
    __slots__ = ()
    op = "^"


class Forall(Binder):
    __slots__ = ()
    op = "!"


class Exists(Binder):
    __slots__ = ()
    op = "?"


class Choice(Binder):
    """Hilbert choice: some x of the domain satisfying the body."""

    __slots__ = ()
    op = "@+"


class Pi(Binder, Type):
    """Dependent function type, the one type binder; prints as A > B when the
    binder is unused."""

    __slots__ = ()
    op = "!>"

    @property
    def codomain(self) -> Type:
        """The body: the type the binder scopes over."""
        return self.body


class Connective(Term):
    """A binary connective; `op` is the TPTP symbol of each subclass."""

    __slots__ = ("left", "right", "ground")
    _fields = ("left", "right")

    def __init__(self, left: Term, right: Term, span: int | None = None):
        _conn_left(self, left)
        _conn_right(self, right)
        _conn_ground(self, getattr(left, "ground", False) and getattr(right, "ground", False))
        _span(self, span)


class Implies(Connective):
    __slots__ = ()
    op = "=>"


class And(Connective):
    __slots__ = ()
    op = "&"


class Or(Connective):
    __slots__ = ()
    op = "|"


class Not(Term):
    __slots__ = ("arg", "ground")
    _fields = ("arg",)

    def __init__(self, arg: Term, span: int | None = None):
        _not_arg(self, arg)
        _not_ground(self, getattr(arg, "ground", False))
        _span(self, span)


class Eq(Term):
    """Typed equality; `at` is the type both sides inhabit.

    Surface syntax writes bare `=`; elaboration fills `at` from the inferred
    type of the left operand, and `<=>` is equality with `at` the type `$o`.
    It can be None only on terms that fail the simply typed skeleton, which
    the checkers reject before anything reads it.
    """

    __slots__ = ("left", "right", "at", "ground")
    _fields = ("left", "right", "at")

    def __init__(self, left: Term, right: Term, at: Type | None = None, span: int | None = None):
        _eq_left(self, left)
        _eq_right(self, right)
        _eq_at(self, at)
        _eq_ground(self, getattr(left, "ground", False) and getattr(right, "ground", False)
                   and (at is None or getattr(at, "ground", False)))
        _span(self, span)


class Top(Term):
    __slots__ = ()
    ground = True


class Bottom(Term):
    __slots__ = ()
    ground = True


# Var's setter refuses a Const, so each has its own.
_var_name, _const_name = Var.name.__set__, Const.name.__set__
_app_fun, _app_arg, _app_ground = App.fun.__set__, App.arg.__set__, App.ground.__set__
_binder_binder, _binder_domain, _binder_body = Binder.binder.__set__, Binder.domain.__set__, Binder.body.__set__
_conn_left, _conn_right, _conn_ground = Connective.left.__set__, Connective.right.__set__, Connective.ground.__set__
_not_arg, _not_ground = Not.arg.__set__, Not.ground.__set__
_eq_left, _eq_right, _eq_at, _eq_ground = Eq.left.__set__, Eq.right.__set__, Eq.at.__set__, Eq.ground.__set__


# ---------------------------------------------------------------------------
# Declarations, theories, contexts


class Decl(Node):
    """Base of the declarations: also the file each was read from, left out of equality."""

    __slots__ = ("path",)


class TypeDecl(Decl):
    """Base-type symbol with a telescope of term-argument types."""

    __slots__ = ("name", "telescope", "label")
    _fields = ("name", "telescope")

    def __init__(self, name: Name, telescope: tuple = (), label: str | None = None, *,
                 span: int | None = None, path: str | None = None):
        _tdecl_name(self, name)
        _tdecl_telescope(self, telescope)  # tuple[(Name, Type), ...]
        _tdecl_label(self, label)
        _span(self, span)
        _path(self, path)


class ConstDecl(Decl):
    __slots__ = ("name", "ty", "label")
    _fields = ("name", "ty")

    def __init__(self, name: Name, ty: Type, label: str | None = None, *,
                 span: int | None = None, path: str | None = None):
        _cdecl_name(self, name)
        _cdecl_ty(self, ty)
        _cdecl_label(self, label)
        _span(self, span)
        _path(self, path)


class Axiom(Decl):
    __slots__ = _fields = ("label", "formula", "role")

    def __init__(self, label: str, formula: Term, role: str = "axiom", *,
                 span: int | None = None, path: str | None = None):
        _axiom_label(self, label)
        _axiom_formula(self, formula)
        _axiom_role(self, role)  # axiom | lemma | hypothesis | definition | conjecture
        _span(self, span)
        _path(self, path)


class Theory(Record):
    __slots__ = _fields = ("decls",)

    def __init__(self, decls: tuple = ()):
        _theory_decls(self, decls)


class VarDecl(Record):
    __slots__ = _fields = ("name", "ty")

    def __init__(self, name: Name, ty: Type):
        _vdecl_name(self, name)
        _vdecl_ty(self, ty)


class Assumption(Record):
    """A formula assumed in context; a label names the axiom it stands for."""

    __slots__ = _fields = ("formula", "label")

    def __init__(self, formula: Term, label: str | None = None):
        _assume_formula(self, formula)
        _assume_label(self, label)


class Context(Record):
    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple = ()):
        _context_entries(self, entries)

    def push_var(self, name: Name, ty: Type) -> "Context":
        return Context(self.entries + (VarDecl(name, ty),))

    def push_assumption(self, formula: Term, label: str | None = None) -> "Context":
        return Context(self.entries + (Assumption(formula, label),))

    def var_type(self, text: str) -> Type | None:
        for entry in reversed(self.entries):
            if isinstance(entry, VarDecl) and entry.name.text == text:
                return entry.ty
        return None


# The slot setters of the declarations, theories and contexts.
_path = Decl.path.__set__
_tdecl_name, _tdecl_telescope, _tdecl_label = (
    TypeDecl.name.__set__, TypeDecl.telescope.__set__, TypeDecl.label.__set__)
_cdecl_name, _cdecl_ty, _cdecl_label = ConstDecl.name.__set__, ConstDecl.ty.__set__, ConstDecl.label.__set__
_axiom_label, _axiom_formula, _axiom_role = Axiom.label.__set__, Axiom.formula.__set__, Axiom.role.__set__
_theory_decls, _context_entries = Theory.decls.__set__, Context.entries.__set__
_vdecl_name, _vdecl_ty = VarDecl.name.__set__, VarDecl.ty.__set__
_assume_formula, _assume_label = Assumption.formula.__set__, Assumption.label.__set__


# ---------------------------------------------------------------------------
# The frame stack of deep walks


def in_own_chunk(func, *args):
    """func(*args) with every frame it calls in one frame-stack chunk, and the
    cyclic collector off until it returns if it was on: the trees of a run are
    acyclic, so reference counting frees them and a collection only walks them."""
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        return func(*args)
    finally:
        if enabled:
            gc.enable()


# CPython 3.11 and later keep frames on a stack of 16 KiB chunks and unmap a
# chunk as soon as the frame at its base returns, so a walk whose depth swings
# across a chunk boundary pays an mmap, a munmap and a page fault at every
# crossing, at depths set only by how deep the caller's stack was.  This frame
# claims 512 KiB of operand stack that it never touches: CPython gives it a
# 1 MiB chunk of its own and puts every frame it calls in the rest.  A written
# formula at MAX_NESTING needs at most 136 kB there (808 frames); the deepest
# walk, over a normal form that beta reduction built and the recursion limit
# bounds, needs 259 kB (991 frames).  A deeper walk still runs, on ordinary
# chunks past this one.  3.10 keeps frames on the heap, and
# would keep such a frame in its free list after a run, so it is left as it is.
if sys.version_info >= (3, 11):
    in_own_chunk.__code__ = in_own_chunk.__code__.replace(co_stacksize=64 * 1024)


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
    if isinstance(t, Binder):
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
        return type(t)(left, right, t.span)
    if isinstance(t, Eq):
        left, right = f(t.left, *args), f(t.right, *args)
        at = None if t.at is None else f(t.at, *args)
        if left is t.left and right is t.right and at is t.at:
            return t
        return Eq(left, right, at, t.span)
    if isinstance(t, Not):
        arg = f(t.arg, *args)
        return t if arg is t.arg else Not(arg, t.span)
    if isinstance(t, (Var, Const, Top, Bottom, BoolType)):
        return t
    raise TypeError(f"map_children: unexpected node {t!r}")


def free_vars(t) -> frozenset:
    """Free variable names (texts) of a term or type."""
    acc: set = set()
    _free_into(t, acc, ())
    return frozenset(acc)


def _free_into(t, acc: set, bound: tuple) -> None:
    if t.ground:
        return
    if isinstance(t, Var):
        if t.name.text not in bound:
            acc.add(t.name.text)
    elif isinstance(t, App):
        _free_into(t.fun, acc, bound)
        _free_into(t.arg, acc, bound)
    elif isinstance(t, Binder):
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
    if isinstance(t, Binder):
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
    if t.ground:
        return t
    if isinstance(t, Var):
        return u if t.name == x else t
    if isinstance(t, App):
        fun = _substitute(t.fun, x, u, u_free)
        arg = _substitute(t.arg, x, u, u_free)
        if fun is t.fun and arg is t.arg:
            return t
        return App(fun, arg, t.span)
    if isinstance(t, BaseApp):
        args = tuple(_substitute(a, x, u, u_free) for a in t.args)
        if all(new is old for new, old in zip(args, t.args)):
            return t
        return BaseApp(t.head, args, t.span)
    if isinstance(t, Binder):
        domain = _substitute(t.domain, x, u, u_free)
        binder, body = t.binder, t.body
        if binder == x:
            return t if domain is t.domain else type(t)(binder, domain, body, t.span)
        if not u_free:
            u_free.append(free_vars(u))
        if binder.text in u_free[0] and x.text in free_vars(body):
            renamed = Name(fresh_name(binder.text, u_free[0] | free_vars(body) | {x.text}), binder.kind)
            body = substitute(body, binder, Var(renamed))
            binder = renamed
        new_body = _substitute(body, x, u, u_free)
        if binder is t.binder and domain is t.domain and new_body is t.body:
            return t
        return type(t)(binder, domain, new_body, t.span)
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
    if a is b and a.ground:
        return True
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
    if isinstance(a, Binder):
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
    if isinstance(t, Binder):
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
    # no redex fired, so a term already in normal form is not copied.  A
    # ground t has no Lam, so no redex.
    if t.ground or isinstance(t, Var):
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
                return App(fun, arg, t.span)
        return _norm(t, budget)
    if isinstance(t, BaseApp):
        args = tuple(_norm(a, budget) for a in t.args)
        if all(new is old for new, old in zip(args, t.args)):
            return t
        return BaseApp(t.head, args, t.span)
    if isinstance(t, Binder):
        domain = _norm(t.domain, budget)
        body = _norm(t.body, budget)
        if isinstance(t, Lam) and isinstance(body, App) and isinstance(body.arg, Var) \
                and body.arg.name == t.binder and t.binder.text not in free_vars(body.fun):
            _spend(budget)  # eta: ^ [X: A]: (f @ X) is f when X is not free in f
            return body.fun
        if domain is t.domain and body is t.body:
            return t
        return type(t)(t.binder, domain, body, t.span)
    # Formulae come here too: every lookup normalizes its goal and its closed
    # formula (an axiom is normalized once, when declared, and a local
    # assumption once per checker), so connectives and equations stay inline.
    # Inline, they also take one interpreter frame per tree level, as in _key.
    if isinstance(t, Connective):
        left, right = _norm(t.left, budget), _norm(t.right, budget)
        if left is t.left and right is t.right:
            return t
        return type(t)(left, right, t.span)
    if isinstance(t, Eq):
        at = None if t.at is None else _norm(t.at, budget)
        left, right = _norm(t.left, budget), _norm(t.right, budget)
        if left is t.left and right is t.right and at is t.at:
            return t
        return Eq(left, right, at, t.span)
    return map_children(t, _norm, budget)
