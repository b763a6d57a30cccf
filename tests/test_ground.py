"""The `ground` bit of the core nodes, against a walk of their children, and
the walks that return a ground node untouched.

A node is ground when its subtree has no `Var`, no binder and no base type
headed by a type variable.  Substitution, normalization and `free_vars`
return at a ground node, and `alpha_equal` takes identity for equality
there, so a wrong bit would change their results: the bit of every node
built by the elaborator, `substitute`, `beta_eta_normalize` and the erasure
is compared with the reference below.
"""

from pathlib import Path

from dtf.core import (
    App,
    Axiom,
    BaseApp,
    Binder,
    Connective,
    Const,
    ConstDecl,
    Eq,
    Forall,
    Lam,
    Name,
    NameKind,
    Not,
    Var,
    alpha_equal,
    beta_eta_normalize,
    children,
    free_vars,
    substitute,
)
from dtf.erasure import Eraser
from dtf.printer import print_problem
from dtf.syntax import Problem, parse_file, parse_problem

from genutil import gen_dependent_type, gen_formula_problem, load_generator

REPO = Path(__file__).resolve().parents[1]
generate = load_generator()

X = Name("X", NameKind.VAR)
Y = Name("Y", NameKind.VAR)
NAT = BaseApp(Name("nat", NameKind.TYPE))
F = Const(Name("f", NameKind.CONST))
A = Const(Name("a", NameKind.CONST))
GROUND_ARG = App(F, A)

# `~`, `|` and a type variable, which the generated problems lack.
EXTRA = """\
thf(nat_type, type, nat: $tType).
thf(a_type, type, a: nat).
thf(f_type, type, f: nat > nat).
thf(p_type, type, p: nat > $o).
thf(ax1, axiom, ~ (p @ (f @ a)) | (p @ a)).
thf(ax2, axiom, ! [X: nat]: (~ (p @ X) | ((f @ X) != a))).
"""
POLYMORPHIC = "thf(id_type, type, id: !> [A: $tType]: (A > A)).\n"


def reference_ground(t, memo: dict) -> bool:
    if id(t) not in memo:
        if isinstance(t, (Var, Binder)):
            memo[id(t)] = False
        elif isinstance(t, BaseApp) and t.head.kind is NameKind.VAR:
            memo[id(t)] = False
        else:
            memo[id(t)] = all(reference_ground(c, memo) for c in children(t))
    return memo[id(t)]


def nodes(root) -> list:
    """Every term and type node below root, root included."""
    found, stack = [], [root]
    while stack:
        t = stack.pop()
        found.append(t)
        stack.extend(children(t))
    return found


def roots(decl) -> list:
    if isinstance(decl, Axiom):
        return [decl.formula]
    if isinstance(decl, ConstDecl):
        return [decl.ty]
    return [ty for _, ty in decl.telescope]


def _parsed() -> list:
    problems = [parse_file(str(path)) for path in sorted((REPO / "corpus").glob("*.p"))]
    problems += [parse_problem(print_problem(gen_formula_problem(seed))) for seed in range(30)]
    problems += [parse_problem(generate.family(name, 1, 0.05)[0])
                 for name in ("axioms", "discharge")]
    problems += [parse_problem(EXTRA), parse_problem(POLYMORPHIC)]
    assert all(isinstance(p, Problem) for p in problems)
    return problems


def _built() -> list:
    """Roots built by the elaborator, by hand, by `substitute`,
    `beta_eta_normalize` and the erasure."""
    parsed = _parsed()
    elaborated = [t for p in parsed for decl in p.decls() for t in roots(decl)]
    built = elaborated + [gen_dependent_type(seed) for seed in range(60)]
    derived = []
    for root in built:
        for x in sorted(free_vars(root)) or ["X"]:
            for u in (GROUND_ARG, Var(Y)):
                derived.append(substitute(root, Name(x, NameKind.VAR), u))
        derived.append(beta_eta_normalize(root))
        for t in nodes(root):
            if isinstance(t, Binder):
                # Instantiate the binder, and normalize the redex that does so.
                derived.append(substitute(t.body, t.binder, GROUND_ARG))
                derived.append(beta_eta_normalize(App(Lam(t.binder, t.domain, t.body), GROUND_ARG)))
    for p in parsed:
        if not p.polymorphic:
            eraser = Eraser(p.theory)
            derived += [t for decl in p.decls() for erased in eraser.erase_decl(decl)
                        for t in roots(erased)]
    return built + derived


BUILT = _built()


def test_the_inputs_build_every_composite_node_ground_and_not():
    seen = {(type(t).__name__ if not isinstance(t, Connective) else "Connective", t.ground)
            for root in BUILT for t in nodes(root)}
    for name in ("App", "BaseApp", "Connective", "Not", "Eq"):
        assert (name, True) in seen and (name, False) in seen, name


def test_the_bit_is_the_reference_and_ground_nodes_are_returned_untouched():
    for root in BUILT:
        memo: dict = {}
        for t in nodes(root):
            assert t.ground is reference_ground(t, memo), t
            if t.ground:
                assert substitute(t, X, Var(Y)) is t
                assert beta_eta_normalize(t) is t
                assert free_vars(t) == frozenset()


def test_a_child_without_the_bit_counts_as_not_ground():
    assert App(F, A).ground
    assert not App(F, "a").ground and not App("f", A).ground
    assert not Eq(A, A, "nat").ground and Eq(A, A).ground and Eq(A, A, NAT).ground
    assert not Not("p").ground
    assert not BaseApp("vec", (A,)).ground and not BaseApp(Name("vec", NameKind.TYPE), "a").ground


def test_identity_is_alpha_equality_only_on_a_ground_subtree():
    # The body is shared, so the binders rename it against itself: X to Y and
    # Y to X.  f @ X @ Y and f @ Y @ X differ, so the terms are not alpha-equal.
    body = App(App(F, Var(X)), Var(Y))
    assert not alpha_equal(Forall(X, NAT, Forall(Y, NAT, body)),
                           Forall(Y, NAT, Forall(X, NAT, body)))
    # A ground body is alpha-equal to itself under any renaming.
    ground = Eq(GROUND_ARG, A, NAT)
    assert alpha_equal(Forall(X, NAT, Forall(Y, NAT, ground)),
                       Forall(Y, NAT, Forall(X, NAT, ground)))
