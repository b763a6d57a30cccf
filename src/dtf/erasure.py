"""Erasure of dependent types into plain higher-order logic.

Every base type family collapses to a single simple type plus a partial
equivalence relation (PER) over it; typing information is re-encoded as
relatedness.  A type declaration produces the collapsed type, its PER
constant, and a functionality axiom; a constant declaration produces the
collapsed constant and a reflexivity axiom stating the constant is related
to itself at its own type.  Quantifiers in formulae are relativized: each
bound variable is guarded by its PER.
"""

from __future__ import annotations

from .core import (
    BOOL,
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
    Forall,
    Implies,
    And,
    Lam,
    Name,
    NameKind,
    Not,
    Pi,
    Term,
    Theory,
    Top,
    Type,
    TypeDecl,
    Var,
    free_vars,
    fresh_name,
    map_children,
    substitute,
)
from .printer import check_simple, decl_line
from .shallow import Arrow, Base, SBool
from .syntax import Problem


class ErasureError(Exception):
    """Raised on input the erasure cannot handle (e.g. a missing equation
    annotation on skeleton-broken input)."""


# ---------------------------------------------------------------------------
# Simple-type side


def erase_type(ty: Type) -> Base | Arrow | SBool:
    """Collapse a dependent type to its simple-type image."""
    if isinstance(ty, BaseApp):
        return Base(ty.head)
    if isinstance(ty, Pi):
        return Arrow(erase_type(ty.domain), erase_type(ty.codomain))
    if isinstance(ty, BoolType):
        return SBool()
    raise ErasureError(f"cannot erase type {ty!r}")


_ARROW_BINDER = Name("X_", NameKind.VAR)


def erased_image(ty: Type) -> Type:
    """The simple core type of ty: erase_type's image, written as a core type."""
    if isinstance(ty, BaseApp):
        return BaseApp(ty.head)
    if isinstance(ty, Pi):
        return Pi(_ARROW_BINDER, erased_image(ty.domain), erased_image(ty.codomain))
    if isinstance(ty, BoolType):
        return BOOL
    raise ErasureError(f"cannot erase type {ty!r}")


# ---------------------------------------------------------------------------
# The eraser


class Eraser:
    def __init__(self, theory: Theory):
        self._used = {decl.name.text for decl in theory.decls
                      if isinstance(decl, (TypeDecl, ConstDecl))}
        self.per_names: dict = {}
        for decl in theory.decls:
            if isinstance(decl, TypeDecl):
                self._name_per(decl.name.text)

    def _name_per(self, text: str) -> None:
        candidate = f"per_{text}"
        while candidate in self._used:
            candidate += "_"
        self._used.add(candidate)
        self.per_names[text] = Name(candidate, NameKind.CONST)

    def extend(self, decl) -> bool:
        """Name the PERs as for the theory followed by decl, or return False if
        decl's name is taken: a PER named so far may then have to change."""
        if isinstance(decl, (TypeDecl, ConstDecl)):
            if decl.name.text in self._used:
                return False
            self._used.add(decl.name.text)
            if isinstance(decl, TypeDecl):
                self._name_per(decl.name.text)
        return True

    # -- relations ---------------------------------------------------------

    def per_of_type(self, ty: Type, t: Term, u: Term) -> Term:
        """The PER of ty applied to t and u."""
        if isinstance(ty, BoolType):
            return Eq(t, u, BOOL)
        if isinstance(ty, BaseApp):
            per = self.per_names.get(ty.head.text)
            if per is None:
                raise ErasureError(f"no PER for type {ty.head.text!r}")
            result: Term = Const(per)
            for arg in ty.args:
                result = App(result, self.erase_term(arg))
            return App(App(result, t), u)
        if isinstance(ty, Pi):
            avoid = set(free_vars(ty)) | set(free_vars(t)) | set(free_vars(u))
            left = Name(fresh_name(ty.binder.text, avoid), NameKind.VAR)
            avoid.add(left.text)
            right = Name(fresh_name(ty.binder.text + "0", avoid), NameKind.VAR)
            domain = erased_image(ty.domain)
            codomain = ty.codomain
            if left != ty.binder:
                codomain = substitute(codomain, ty.binder, Var(left))
            body = Implies(
                self.per_of_type(ty.domain, Var(left), Var(right)),
                self.per_of_type(codomain, App(t, Var(left)), App(u, Var(right))),
            )
            return Forall(left, domain, Forall(right, domain, body))
        raise ErasureError(f"cannot relate values at type {ty!r}")

    # -- terms ---------------------------------------------------------------

    def erase_term(self, t: Term) -> Term:
        if isinstance(t, (Var, Const, Top, Bottom)):
            return t
        if isinstance(t, App):
            return App(self.erase_term(t.fun), self.erase_term(t.arg), t.span)
        if isinstance(t, Lam):
            return Lam(t.binder, erased_image(t.domain), self.erase_term(t.body), t.span)
        if isinstance(t, Binder):
            # Quantifiers and choice guard their variable with its PER: by
            # `=>` under `!`, by `&` under `?` and `@+`.
            guard = self.per_of_type(t.domain, Var(t.binder), Var(t.binder))
            guarded = Implies if isinstance(t, Forall) else And
            return type(t)(t.binder, erased_image(t.domain),
                           guarded(guard, self.erase_term(t.body)), t.span)
        if isinstance(t, Eq):
            if t.at is None:
                raise ErasureError(
                    "equation lacks a type annotation; run the checkers first")
            return self.per_of_type(t.at, self.erase_term(t.left), self.erase_term(t.right))
        if isinstance(t, (Connective, Not)):
            return map_children(t, self.erase_term)
        raise ErasureError(f"cannot erase term {t!r}")

    # -- declarations -----------------------------------------------------------

    def erase_decl(self, decl) -> list:
        """The declarations decl erases to."""
        if isinstance(decl, TypeDecl):
            return self.erase_type_decl(decl)
        if isinstance(decl, ConstDecl):
            return self.erase_const_decl(decl)
        if isinstance(decl, Axiom):
            return [Axiom(decl.label, self.erase_term(decl.formula), decl.role)]
        raise ErasureError(f"cannot erase declaration {decl!r}")

    def erase_type_decl(self, decl: TypeDecl) -> list:
        a = decl.name
        per = self.per_names[a.text]
        per_ty: Type = Pi(_ARROW_BINDER, BaseApp(a),
                          Pi(_ARROW_BINDER, BaseApp(a), BOOL))
        for _, arg_ty in reversed(decl.telescope):
            per_ty = Pi(_ARROW_BINDER, erased_image(arg_ty), per_ty)

        texts = [n.text for n, _ in decl.telescope]
        u = Name(fresh_name("U", set(texts)), NameKind.VAR)
        v = Name(fresh_name("V", set(texts) | {u.text}), NameKind.VAR)
        applied: Term = Const(per)
        for n, _ in decl.telescope:
            applied = App(applied, Var(n))
        applied = App(App(applied, Var(u)), Var(v))
        formula: Term = Implies(applied, Eq(Var(u), Var(v), BaseApp(a)))
        formula = Forall(u, BaseApp(a), Forall(v, BaseApp(a), formula))
        for n, arg_ty in reversed(decl.telescope):
            formula = Forall(n, erased_image(arg_ty), formula)
        return [TypeDecl(a, (), decl.label or a.text),
                ConstDecl(per, per_ty, f"{per.text}_type"),
                Axiom(f"{per.text}_functional", formula)]

    def erase_const_decl(self, decl: ConstDecl) -> list:
        refl = self.per_of_type(decl.ty, Const(decl.name), Const(decl.name))
        return [ConstDecl(decl.name, erased_image(decl.ty), decl.label or decl.name.text),
                Axiom(f"{decl.name.text}_per", refl)]


def assumed_axioms(obligations) -> list:
    """Residual obligations as axioms `<label>_assumed`, for callers who
    accept them unproven."""
    return [Axiom(f"{ob.label}_assumed", ob.formula) for ob in obligations]


def erase_problem(problem, assume_obligations=()) -> Problem:
    """Translate a checked problem to plain HOL: its theory, then
    assume_obligations as axioms (see assumed_axioms), then its goal.
    """
    eraser = Eraser(problem.theory)
    decls = (*problem.theory.decls, *assumed_axioms(assume_obligations))
    erased = tuple(e for decl in decls for e in eraser.erase_decl(decl))
    goal = problem.goal and eraser.erase_decl(problem.goal)[0]
    return Problem(theory=Theory(erased), goal=goal, polymorphic=False, path=problem.path)


def th0_lines(eraser: Eraser, decl) -> str:
    """Erase one declaration, check that it is simply typed and print it."""
    return "\n".join(decl_line(check_simple(erased)) for erased in eraser.erase_decl(decl))


class TH0Printer:
    """print_th0(erase_problem(sub, assumed)) for the sub-problems of one
    problem whose theories are prefixes of its theory, as `solve` makes them.
    Each declaration is erased, checked and printed once per PER naming.
    """

    def __init__(self, problem):
        self.decls = problem.theory.decls
        naming = (Eraser(Theory()), [])        # an Eraser and its printed decls
        self._namings = [naming]               # prefix length -> its naming
        for k, decl in enumerate(self.decls, start=1):
            if not naming[0].extend(decl):
                naming = (Eraser(Theory(self.decls[:k])), [])
            self._namings.append(naming)

    def print(self, sub, assume_obligations=()) -> str:
        prefix = len(sub.theory.decls)
        eraser, lines = self._namings[prefix]
        while len(lines) < prefix:
            lines.append(th0_lines(eraser, self.decls[len(lines)]))
        extra = (*assumed_axioms(assume_obligations), *sub.decls()[prefix:])  # the goal, if any
        return "\n".join(lines[:prefix] + [th0_lines(eraser, d) for d in extra]) + "\n"
