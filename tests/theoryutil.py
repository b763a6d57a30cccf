"""Lookups and an alpha comparison over a core Theory that only tests use."""

from dtf.core import BOOL, Axiom, ConstDecl, Pi, Theory, TypeDecl, alpha_key


def type_decl(theory: Theory, text: str) -> TypeDecl | None:
    for d in theory.decls:
        if isinstance(d, TypeDecl) and d.name.text == text:
            return d
    return None


def const_decl(theory: Theory, text: str) -> ConstDecl | None:
    for d in theory.decls:
        if isinstance(d, ConstDecl) and d.name.text == text:
            return d
    return None


def axioms(theory: Theory) -> tuple:
    return tuple(d for d in theory.decls if isinstance(d, Axiom))


def theory_alpha_equal(t1: Theory, t2: Theory) -> bool:
    return list(map(_decl_key, t1.decls)) == list(map(_decl_key, t2.decls))


def _decl_key(d) -> tuple:
    if isinstance(d, TypeDecl):
        # Each telescope variable is bound in the later entries, as in a Pi chain.
        chain = BOOL
        for name, ty in reversed(d.telescope):
            chain = Pi(name, ty, chain)
        return (TypeDecl, d.name, alpha_key(chain))
    if isinstance(d, ConstDecl):
        return (ConstDecl, d.name, alpha_key(d.ty))
    return (Axiom, d.label, d.role, alpha_key(d.formula))
