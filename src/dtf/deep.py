"""Deep type checking: undecidable equalities become proof obligations.

Typing a dependently typed problem reduces to simple-type facts (already
covered by the shallow skeleton pass) plus equations between the term
arguments of base types.  This checker walks each declaration, compares
types up to beta-eta normalization and alpha-equivalence, and turns every
remaining equation into an Obligation: a goal in a typing context, plus a
closed formula obtained by discharging the context.

Obligations whose closed or open form matches a context assumption are
discharged by lookup and reported separately; the rest are residual and can
be exported as self-contained problems.
"""

from __future__ import annotations

import os

from .core import (
    BOOL,
    Assumption,
    Axiom,
    App,
    BaseApp,
    Binder,
    BoolType,
    Bottom,
    Choice,
    Connective,
    Const,
    ConstDecl,
    Context,
    Eq,
    Exists,
    Forall,
    Implies,
    Lam,
    Name,
    Not,
    NormalizationBudgetExceeded,
    Or,
    Pi,
    Record,
    Term,
    Theory,
    Top,
    Type,
    TypeDecl,
    Var,
    VarDecl,
    alpha_equal,
    alpha_key,
    beta_eta_normalize,
    free_vars,
    fresh_name,
    substitute,
)
from .diagnostics import Diagnostic, DiagnosticError, error
from .printer import decl_line, format_type
from .syntax import Problem, locate


class Obligation(Record):
    """A proof obligation produced while checking one formula: its `formula` is
    the closed form, the context discharged into the goal, and `theory_prefix`
    counts the leading theory declarations visible to it."""

    __slots__ = _fields = ("label", "context", "goal", "origin", "formula", "theory_prefix",
                           "source_span", "discharged_by")

    def __init__(self, label: str, context: Context, goal: Term, origin: str, formula: Term,
                 theory_prefix: int, source_span: int | None = None,
                 discharged_by: str | None = None):
        for name, value in zip(self._fields, (label, context, goal, origin, formula,
                                              theory_prefix, source_span, discharged_by)):
            object.__setattr__(self, name, value)


class CheckReport(Record):
    """Everything the deep checker found for one problem: the residual
    obligations, those discharged by an assumption, and the diagnostics."""

    __slots__ = _fields = ("obligations", "discharged", "diagnostics")

    def __init__(self, obligations: list, discharged: list, diagnostics: list):
        for name, value in zip(self._fields, (obligations, discharged, diagnostics)):
            object.__setattr__(self, name, value)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def close_obligation(context: Context, goal: Term) -> Term:
    """Quantify a goal over its context.

    Unlabeled assumptions become premises; labeled ones are theory axioms
    and stay out of the formula.  Context variables not needed by the goal,
    a kept assumption, or the type of a kept variable are pruned.
    """
    entries = list(context.entries)
    kept_assumptions = [e for e in entries if isinstance(e, Assumption) and e.label is None]
    needed = set(free_vars(goal))
    for a in kept_assumptions:
        needed |= free_vars(a.formula)
    kept: list = []
    for entry in reversed(entries):
        if isinstance(entry, VarDecl):
            if entry.name.text in needed:
                kept.append(entry)
                needed |= free_vars(entry.ty)
    kept.reverse()

    body = goal
    for a in reversed(kept_assumptions):
        body = Implies(a.formula, body)
    for v in reversed(kept):
        body = Forall(v.name, v.ty, body)
    return body


class DeepChecker:
    """Checks declarations and formulae against the declarations made so far,
    accumulating obligations.  `context` holds the declared axioms, which every
    context passed to `check` extends; each is normalized and keyed once.
    """

    def __init__(self, path: str | None = None, texts: dict | None = None):
        self.path = path
        self.texts = texts or {}  # path -> text, against which a node's offset is located
        self.obligations: list = []
        self.discharged: list = []
        self.context = Context()
        self._counter = 0
        self._theory_prefix = 0
        self._current_label = "formula"
        self._current_path = path
        self._types: dict = {}
        self._consts: dict = {}
        # Key of an axiom's normal form -> (position, label) of its first axiom;
        # the key None maps the first axiom past the budget to the label None.
        self._axiom_index: dict = {}
        self._local_keys: dict = {}      # id(assumption) -> (assumption, key)

    def check_decl(self, decl) -> Diagnostic | None:
        """Check decl against the declarations before it, then declare it, also
        when the check fails; a conjecture (an Axiom of role "conjecture") is
        checked but not declared.  Returns the first error found, or None.
        """
        self._current_label = (decl.label if isinstance(decl, Axiom)
                               else decl.label or decl.name.text)
        self._current_path = decl.path or self.path
        ctx = self.context
        diagnostic = None
        try:
            if isinstance(decl, TypeDecl):
                for name, ty in decl.telescope:
                    self.wf_type(ctx, ty)
                    ctx = ctx.push_var(name, ty)
            elif isinstance(decl, ConstDecl):
                self.wf_type(ctx, decl.ty)
            else:
                self.check(ctx, decl.formula, BOOL)
        except DiagnosticError as exc:
            diagnostic = exc.diagnostic
        if not (isinstance(decl, Axiom) and decl.role == "conjecture"):
            self.declare(decl)
        return diagnostic

    def declare(self, decl) -> None:
        """Make decl visible to what is checked after it; the first wins."""
        if isinstance(decl, TypeDecl):
            self._types.setdefault(decl.name.text, decl)
        elif isinstance(decl, ConstDecl):
            self._consts.setdefault(decl.name.text, decl)
        elif isinstance(decl, Axiom):
            key = _normal_key(decl.formula)
            self._axiom_index.setdefault(
                key, (len(self.context.entries), None if key is None else decl.label))
            self.context = self.context.push_assumption(decl.formula, label=decl.label)
        self._theory_prefix += 1

    # -- plumbing -----------------------------------------------------------

    def fail(self, message: str, span: int | None) -> DiagnosticError:
        path = self._current_path
        return DiagnosticError(error(message, locate(self.texts.get(path), span), path))

    def _normalize(self, t, span: int | None):
        try:
            return beta_eta_normalize(t)
        except NormalizationBudgetExceeded:
            raise self.fail("normalization budget exceeded", span)

    # -- types ----------------------------------------------------------------

    def wf_type(self, ctx: Context, ty: Type) -> None:
        if isinstance(ty, BoolType):
            return
        if isinstance(ty, BaseApp):
            decl = self._types.get(ty.head.text)
            if decl is None:
                raise self.fail(f"unknown type symbol {ty.head.text!r}", ty.span)
            if len(ty.args) != len(decl.telescope):
                raise self.fail(
                    f"type {ty.head.text!r} expects {len(decl.telescope)} "
                    f"argument{'s' if len(decl.telescope) != 1 else ''}, "
                    f"got {len(ty.args)}", ty.span)
            for i, arg in enumerate(ty.args):
                expected = _instantiate_telescope(decl.telescope, ty.args, i)
                self.check(ctx, arg, expected)
            return
        if isinstance(ty, Pi):
            self.wf_type(ctx, ty.domain)
            self.wf_type(ctx.push_var(ty.binder, ty.domain), ty.codomain)
            return
        raise self.fail(f"ill-formed type {ty!r}", getattr(ty, "span", None))

    def type_equal(self, ctx: Context, a: Type, b: Type, span: int | None,
                   origin: str) -> None:
        """Require a and b equal, emitting obligations for term arguments."""
        if a is b or alpha_equal(a, b):
            return
        a_n = self._normalize(a, span)
        b_n = self._normalize(b, span)
        # When both were normal already, this comparison is the one that failed above.
        if (a_n is not a or b_n is not b) and alpha_equal(a_n, b_n):
            return
        if isinstance(a_n, BaseApp) and isinstance(b_n, BaseApp):
            if a_n.head != b_n.head or len(a_n.args) != len(b_n.args):
                raise self.fail(
                    f"types differ: {format_type(a_n)} vs {format_type(b_n)}", span)
            decl = self._types.get(a_n.head.text)
            telescope = decl.telescope if decl is not None else ()
            # The arguments of a normal form are normal already.
            for i, (s, t) in enumerate(zip(a_n.args, b_n.args)):
                if alpha_equal(s, t):
                    continue
                at = (_instantiate_telescope(telescope, a_n.args, i)
                      if i < len(telescope) else None)
                self.emit(ctx, Eq(s, t, at, span=span), origin, span)
            return
        if isinstance(a_n, Pi) and isinstance(b_n, Pi):
            self.type_equal(ctx, a_n.domain, b_n.domain, span, origin)
            # Compare the codomains under a_n's binder, renamed when keeping
            # it would capture a free variable of b_n or shadow the context.
            x, cod_a = a_n.binder, a_n.codomain
            if x.text in free_vars(b_n) or ctx.var_type(x.text) is not None:
                avoid = free_vars(a_n) | free_vars(b_n) | {
                    e.name.text for e in ctx.entries if isinstance(e, VarDecl)}
                x = Name(fresh_name(x.text, avoid), x.kind)
                cod_a = substitute(cod_a, a_n.binder, Var(x))
            cod_b = substitute(b_n.codomain, b_n.binder, Var(x))
            self.type_equal(ctx.push_var(x, a_n.domain), cod_a, cod_b, span, origin)
            return
        raise self.fail(f"types differ: {format_type(a_n)} vs {format_type(b_n)}", span)

    # -- terms ------------------------------------------------------------------

    def infer(self, ctx: Context, t: Term) -> Type:
        if isinstance(t, Var):
            ty = ctx.var_type(t.name.text)
            if ty is None:
                raise self.fail(f"unbound variable {t.name.text!r}", t.span)
            return ty
        if isinstance(t, Const):
            decl = self._consts.get(t.name.text)
            if decl is None:
                raise self.fail(f"unknown constant {t.name.text!r}", t.span)
            return decl.ty
        if isinstance(t, App):
            fun_ty = self.infer(ctx, t.fun)  # not normalized: a type has no redex at its top
            if not isinstance(fun_ty, Pi):
                shown = format_type(self._normalize(fun_ty, t.span))
                raise self.fail(f"applied term has non-function type {shown}", t.span)
            self.check(ctx, t.arg, fun_ty.domain)
            return substitute(fun_ty.codomain, fun_ty.binder, t.arg)
        if isinstance(t, Connective):
            # Connectives are dependent: `F => G` and `F & G` check G assuming
            # F, and `F | G` checks G assuming ~F.
            self.check(ctx, t.left, BOOL)
            assumed = Not(t.left) if isinstance(t, Or) else t.left
            self.check(ctx.push_assumption(assumed), t.right, BOOL)
            return BOOL
        if isinstance(t, Not):
            self.check(ctx, t.arg, BOOL)
            return BOOL
        if isinstance(t, Eq):
            left_ty = self.infer(ctx, t.left)
            right_ty = self.infer(ctx, t.right)
            self.type_equal(ctx, left_ty, right_ty, t.span,
                            "equation sides must have equal types")
            if isinstance(t.at, BoolType):  # `<=>` relates formulae
                self.type_equal(ctx, left_ty, BOOL, t.span,
                                "equivalence operands must be formulae")
            return BOOL
        if isinstance(t, Binder):
            self.wf_type(ctx, t.domain)
            inner = ctx.push_var(t.binder, t.domain)
            if isinstance(t, Lam):
                return Pi(t.binder, t.domain, self.infer(inner, t.body))
            self.check(inner, t.body, BOOL)
            if isinstance(t, Choice):
                witness = Exists(t.binder, t.domain, t.body, span=t.span)
                self.emit(ctx, witness, "choice requires a provable witness", t.span)
                return t.domain
            return BOOL
        if isinstance(t, (Top, Bottom)):
            return BOOL
        raise self.fail(f"cannot infer a type for {t!r}", getattr(t, "span", None))

    def check(self, ctx: Context, t: Term, expected: Type) -> None:
        inferred = self.infer(ctx, t)
        self.type_equal(ctx, inferred, expected, t.span,
                        "inferred type must match the expected type")

    # -- obligations ---------------------------------------------------------------

    def emit(self, ctx: Context, goal: Term, origin: str, span: int | None) -> None:
        self._counter += 1
        # The axioms stay out of the closed formula, so close over the rest.
        closed = close_obligation(Context(self._local_entries(ctx)), goal)
        matched = self._lookup(ctx, goal, closed, span)
        ob = Obligation(
            label=f"ob{self._counter}",
            context=ctx,
            goal=goal,
            origin=f"{origin} (while checking {self._current_label!r})",
            formula=closed,
            theory_prefix=self._theory_prefix,
            source_span=span,
            discharged_by=matched,
        )
        (self.obligations if matched is None else self.discharged).append(ob)

    def _lookup(self, ctx: Context, goal: Term, closed: Term,
                span: int | None) -> str | None:
        """Discharge by assumption: open or closed form, up to normalization.

        The answer is that of a scan over the assumptions of ctx, axioms first,
        which fails at the first axiom past the budget that it reaches.  (The
        closed form has every local assumption as a premise, so a local
        assumption past the budget has already failed the lookup.)
        """
        goal_n = self._normalize(goal, span)
        closed_n = self._normalize(closed, span)
        keys = (alpha_key(goal_n), alpha_key(closed_n))
        index = self._axiom_index
        hit = min((index[k] for k in keys + (None,) if k in index), default=None)
        if hit is not None:
            if hit[1] is None:
                raise self.fail("normalization budget exceeded", span)
            return hit[1]
        for entry in self._local_entries(ctx):
            if isinstance(entry, Assumption):
                if id(entry) not in self._local_keys:
                    # Kept with the entry, so that its id is not reused.
                    self._local_keys[id(entry)] = (entry, _normal_key(entry.formula))
                if self._local_keys[id(entry)][1] in keys:
                    return entry.label or "local assumption"
        return None

    def _local_entries(self, ctx: Context) -> tuple:
        """The entries of ctx after the declared axioms that it extends."""
        return ctx.entries[len(self.context.entries):]


def _normal_key(formula: Term):
    """alpha_key of the normal form of formula, or None past the budget."""
    try:
        return alpha_key(beta_eta_normalize(formula))
    except NormalizationBudgetExceeded:
        return None


def _instantiate_telescope(telescope, args, i) -> Type:
    """Type of the i-th argument after substituting the earlier ones."""
    ty = telescope[i][1]
    for (name, _), value in zip(telescope[:i], args[:i]):
        ty = substitute(ty, name, value)
    return ty


def check_problem(problem) -> CheckReport:
    """Deep-check every declaration and the conjecture of a problem.

    Earlier axioms are visible as labeled assumptions when checking later
    formulae; each obligation records how many theory declarations it may
    rely on.
    """
    if problem.polymorphic:
        return CheckReport([], [], [problem.polymorphic])
    checker = DeepChecker(problem.path, problem.texts)
    diagnostics = [d for d in map(checker.check_decl, problem.decls()) if d is not None]
    return CheckReport(checker.obligations, checker.discharged, diagnostics)


def obligation_problem(problem, ob: Obligation):
    """Build a self-contained problem whose conjecture is the obligation."""
    visible = problem.theory.decls[: ob.theory_prefix]
    return Problem(
        theory=Theory(tuple(visible)),
        goal=Axiom(ob.label, ob.formula, "conjecture"),
        path=problem.path,
    )


def export_obligations(problem, obligations, out_dir: str) -> list:
    """Write each obligation as `<stem>__ob<k>.p`; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    stem = "problem"
    if problem.path:
        stem = os.path.splitext(os.path.basename(problem.path))[0]
    paths: list = []
    lines = [decl_line(decl) for decl in problem.theory.decls]  # each printed once
    for k, ob in enumerate(obligations, start=1):
        path = os.path.join(out_dir, f"{stem}__ob{k}.p")
        # The text of print_problem(obligation_problem(problem, ob)):
        goal = decl_line(Axiom(ob.label, ob.formula, "conjecture"))
        text = "\n".join(lines[:ob.theory_prefix] + [goal]) + "\n"
        header = f"% {ob.label}: {ob.origin}\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(header + text)
        paths.append(path)
    return paths
