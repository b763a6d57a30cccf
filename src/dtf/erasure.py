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

from dataclasses import dataclass

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


def embed(simple: Base | Arrow | SBool) -> Type:
    """Embed a simple type back into the core type language."""
    if isinstance(simple, Base):
        return BaseApp(simple.head)
    if isinstance(simple, Arrow):
        return Pi(_ARROW_BINDER, embed(simple.arg), embed(simple.res))
    if isinstance(simple, SBool):
        return BOOL
    raise ErasureError(f"cannot embed {simple!r}")


def erased_image(ty: Type) -> Type:
    return embed(erase_type(ty))


# ---------------------------------------------------------------------------
# The eraser


@dataclass(frozen=True)
class ErasedProblem:
    """A plain HOL problem plus where each erased declaration came from."""

    problem: object                 # syntax.Problem, simply typed
    provenance: dict                # erased label -> source description


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
            return App(self.erase_term(t.fun), self.erase_term(t.arg), span=t.span)
        if isinstance(t, Lam):
            return Lam(t.binder, erased_image(t.domain), self.erase_term(t.body), span=t.span)
        if isinstance(t, Binder):
            # Quantifiers and choice guard their variable with its PER: by
            # `=>` under `!`, by `&` under `?` and `@+`.
            guard = self.per_of_type(t.domain, Var(t.binder), Var(t.binder))
            guarded = Implies if isinstance(t, Forall) else And
            return type(t)(t.binder, erased_image(t.domain),
                           guarded(guard, self.erase_term(t.body)), span=t.span)
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
        """(label, erased declaration, source) for each declaration decl erases to."""
        if isinstance(decl, TypeDecl):
            return self.erase_type_decl(decl)
        if isinstance(decl, ConstDecl):
            return self.erase_const_decl(decl)
        if isinstance(decl, Axiom):
            erased = Axiom(decl.label, self.erase_term(decl.formula), decl.role)
            return [(decl.label, erased, f"{decl.role} {decl.label!r}")]
        raise ErasureError(f"cannot erase declaration {decl!r}")

    def erase_type_decl(self, decl: TypeDecl) -> list:
        a = decl.name
        per = self.per_names[a.text]
        out: list = []
        label = decl.label or a.text
        out.append((label, TypeDecl(a, (), label), f"type declaration {a.text!r}"))

        per_ty: Type = Pi(_ARROW_BINDER, BaseApp(a),
                          Pi(_ARROW_BINDER, BaseApp(a), BOOL))
        for _, arg_ty in reversed(decl.telescope):
            per_ty = Pi(_ARROW_BINDER, erased_image(arg_ty), per_ty)
        out.append((f"{per.text}_type", ConstDecl(per, per_ty, f"{per.text}_type"),
                    f"PER for type {a.text!r}"))

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
        out.append((f"{per.text}_functional",
                    Axiom(f"{per.text}_functional", formula),
                    f"functionality of the PER for {a.text!r}"))
        return out

    def erase_const_decl(self, decl: ConstDecl) -> list:
        label = decl.label or decl.name.text
        erased = ConstDecl(decl.name, erased_image(decl.ty), label)
        refl = self.per_of_type(decl.ty, Const(decl.name), Const(decl.name))
        refl_label = f"{decl.name.text}_per"
        return [
            (label, erased, f"constant declaration {decl.name.text!r}"),
            (refl_label, Axiom(refl_label, refl),
             f"self-relatedness of constant {decl.name.text!r}"),
        ]


def erase_problem(problem, assume_obligations=()) -> ErasedProblem:
    """Translate a checked problem to plain HOL.

    assume_obligations: residual obligations to append as axioms (their
    closed formulae, erased), for callers who accept them unproven.
    """
    from .syntax import Problem

    eraser = Eraser(problem.theory)
    decls: list = []
    provenance: dict = {}
    for decl in problem.theory.decls:
        for label, payload, source in eraser.erase_decl(decl):
            decls.append(payload)
            provenance[label] = source
    for ob in assume_obligations:
        label = f"{ob.label}_assumed"
        decls.append(Axiom(label, eraser.erase_term(ob.formula)))
        provenance[label] = f"assumed proof obligation {ob.label!r}"
    conjecture = None
    if problem.conjecture is not None:
        conjecture = eraser.erase_term(problem.conjecture)
    erased_problem = Problem(
        theory=Theory(tuple(decls)),
        conjecture=conjecture,
        conjecture_name=problem.conjecture_name,
        polymorphic=False,
        path=problem.path,
    )
    return ErasedProblem(erased_problem, provenance)


def th0_lines(eraser: Eraser, decl) -> str:
    """Erase one declaration, check that it is simply typed and print it."""
    return "\n".join(decl_line(check_simple(payload))
                     for _, payload, _ in eraser.erase_decl(decl))


class TH0Printer:
    """print_th0(erase_problem(sub, assumed).problem) for the sub-problems of one
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
        extra = [Axiom(f"{ob.label}_assumed", ob.formula) for ob in assume_obligations]
        if sub.conjecture is not None:
            extra.append(Axiom(sub.conjecture_name or "goal", sub.conjecture, "conjecture"))
        return "\n".join(lines[:prefix] + [th0_lines(eraser, d) for d in extra]) + "\n"
