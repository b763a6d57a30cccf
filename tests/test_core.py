"""Core AST: substitution, alpha-equivalence, normalization."""

import pytest
from hypothesis import given, strategies as st

from dtf.core import (
    And,
    App,
    Axiom,
    BaseApp,
    BoolType,
    Bottom,
    Const,
    ConstDecl,
    Eq,
    Exists,
    Forall,
    Lam,
    Name,
    NameKind,
    NormalizationBudgetExceeded,
    Not,
    Or,
    Pi,
    Theory,
    Top,
    TypeDecl,
    Var,
    alpha_equal,
    alpha_key,
    beta_eta_normalize,
    free_vars,
    fresh_name,
    substitute,
    term_size,
)
from dtf.diagnostics import Span

from genutil import gen_dependent_type
from theoryutil import theory_alpha_equal


def v(text: str) -> Var:
    return Var(Name(text, NameKind.VAR))


def c(text: str) -> Const:
    return Const(Name(text, NameKind.CONST))


def base(text: str, *args) -> BaseApp:
    return BaseApp(Name(text, NameKind.TYPE), tuple(args))


NAT = base("nat")
X = Name("X", NameKind.VAR)
Y = Name("Y", NameKind.VAR)
Z = Name("Z", NameKind.VAR)


# -- free variables ----------------------------------------------------------


def test_free_vars_ignores_constants_and_bound():
    t = Forall(X, NAT, App(c("f"), v("X")))
    assert free_vars(t) == frozenset()
    t = Forall(X, NAT, App(c("f"), v("Y")))
    assert free_vars(t) == {"Y"}


def test_free_vars_includes_type_annotations_and_base_args():
    eq = Eq(v("A"), v("B"), base("vec", v("N")))
    assert free_vars(eq) == {"A", "B", "N"}
    assert free_vars(base("vec", v("M"))) == {"M"}


def test_free_vars_includes_variable_type_heads():
    ty = Pi(X, BaseApp(Name("A", NameKind.VAR)), BaseApp(Name("A", NameKind.VAR)))
    assert free_vars(ty) == {"A"}


# -- term size ----------------------------------------------------------------


def test_term_size_leaves_and_applications():
    assert term_size(v("X")) == 1
    assert term_size(c("f")) == 1
    assert term_size(App(App(c("f"), v("X")), v("Y"))) == 5


def test_term_size_binders_count_domains():
    # Forall node + nat + (f @ X) application = 1 + 1 + 3
    assert term_size(Forall(X, NAT, App(c("f"), v("X")))) == 5


def test_term_size_ignores_equality_annotation():
    bare = Eq(v("A"), v("B"))
    annotated = Eq(v("A"), v("B"), base("vec", v("N")))
    assert term_size(bare) == term_size(annotated) == 3


def test_term_size_dependent_types():
    assert term_size(base("vec", v("N"))) == 2
    assert term_size(Pi(X, NAT, base("vec", v("X")))) == 4


# -- fresh names --------------------------------------------------------------


@given(st.text(alphabet="ABCXYZ", min_size=1, max_size=4),
       st.sets(st.text(alphabet="ABCXYZ0123456789", min_size=1, max_size=5), max_size=20))
def test_fresh_name_avoids(base_text, avoid):
    got = fresh_name(base_text, avoid)
    assert got not in avoid


def test_fresh_name_prefers_original():
    assert fresh_name("N", set()) == "N"
    assert fresh_name("N", {"N"}) != "N"


# -- substitution ---------------------------------------------------------------


def test_substitute_simple():
    t = App(c("f"), v("X"))
    assert substitute(t, X, c("a")) == App(c("f"), c("a"))


def test_substitute_stops_at_shadowing_binder():
    t = Forall(X, NAT, v("X"))
    assert substitute(t, X, c("a")) == t


def test_substitute_capture_avoiding():
    # (! [Y]: X)[X := Y] must rename the binder, not capture.
    t = Forall(Y, NAT, v("X"))
    got = substitute(t, X, v("Y"))
    assert isinstance(got, Forall)
    assert got.binder.text != "Y"
    assert got.body == v("Y")
    assert alpha_equal(got, Forall(Z, NAT, v("Y")))


def test_substitute_into_type_arguments():
    t = Forall(Y, base("vec", v("X")), Eq(v("Y"), v("Y"), base("vec", v("X"))))
    got = substitute(t, X, c("n"))
    assert got.domain == base("vec", c("n"))
    assert got.body.at == base("vec", c("n"))


# -- alpha equivalence --------------------------------------------------------------


def test_alpha_equal_renamed_binders():
    s = Forall(X, NAT, Eq(v("X"), v("X"), NAT))
    t = Forall(Y, NAT, Eq(v("Y"), v("Y"), NAT))
    assert alpha_equal(s, t)


def test_alpha_equal_distinguishes_crossed_binders():
    s = Forall(X, NAT, Forall(Y, NAT, Eq(v("X"), v("Y"), NAT)))
    t = Forall(X, NAT, Forall(Y, NAT, Eq(v("Y"), v("X"), NAT)))
    assert not alpha_equal(s, t)


def test_alpha_equal_compares_annotations():
    s = Eq(c("a"), c("a"), NAT)
    t = Eq(c("a"), c("a"), base("other"))
    assert not alpha_equal(s, t)
    assert not alpha_equal(s, Eq(c("a"), c("a"), None))


def test_alpha_equal_dependent_types():
    s = Pi(X, NAT, base("vec", v("X")))
    t = Pi(Y, NAT, base("vec", v("Y")))
    assert alpha_equal(s, t)
    assert not alpha_equal(s, Pi(Y, NAT, base("vec", c("zero"))))


@st.composite
def small_terms(draw, depth: int = 3):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return v(draw(st.sampled_from(["X", "Y", "Z"])))
        return c(draw(st.sampled_from(["a", "b", "f"])))
    kind = draw(st.sampled_from(["app", "forall", "eq", "lam"]))
    if kind == "app":
        return App(draw(small_terms(depth=depth - 1)), draw(small_terms(depth=depth - 1)))
    if kind == "eq":
        return Eq(draw(small_terms(depth=depth - 1)), draw(small_terms(depth=depth - 1)), NAT)
    binder = Name(draw(st.sampled_from(["X", "Y", "W"])), NameKind.VAR)
    node = Forall if kind == "forall" else Lam
    return node(binder, NAT, draw(small_terms(depth=depth - 1)))


@given(small_terms())
def test_alpha_equal_reflexive(t):
    assert alpha_equal(t, t)


# -- substitution shares what it does not change -------------------------------------


@given(small_terms(), st.sampled_from(["X", "Y", "Z", "W"]), small_terms())
def test_substitute_returns_the_input_when_the_variable_is_not_free(t, x_text, u):
    x = Name(x_text, NameKind.VAR)
    got = substitute(t, x, u)
    if x_text not in free_vars(t):
        assert got is t
    # Either way, every subtree without a free x is shared.
    if isinstance(t, App) and x_text not in free_vars(t.fun):
        assert got.fun is t.fun


@given(st.integers(0, 10_000), st.sampled_from(["X1", "X2", "X3", "X4"]))
def test_substitute_returns_the_input_type_when_the_variable_is_not_free(seed, x_text):
    ty = gen_dependent_type(seed)
    got = substitute(ty, Name(x_text, NameKind.VAR), c("n"))
    assert (got is ty) == (x_text not in free_vars(ty))


def test_substitute_shares_connectives_negations_and_annotations():
    t = And(Not(Eq(c("a"), v("Y"), base("vec", v("Y")))), Or(Top(), Bottom()))
    assert substitute(t, X, c("n")) is t
    got = substitute(t, Y, c("n"))
    assert got == And(Not(Eq(c("a"), c("n"), base("vec", c("n")))), Or(Top(), Bottom()))
    assert got.right is t.right


# -- alpha keys ----------------------------------------------------------------------


def rename_binders(t, names, env=None):
    """Rename every binder of t, in preorder, to the next of names; the
    variables it binds follow.  A name free in the body may be captured."""
    env = env or {}
    if isinstance(t, Var):
        return Var(env.get(t.name.text, t.name))
    if isinstance(t, App):
        return App(rename_binders(t.fun, names, env), rename_binders(t.arg, names, env))
    if isinstance(t, Eq):
        return Eq(rename_binders(t.left, names, env), rename_binders(t.right, names, env), t.at)
    if isinstance(t, (Forall, Lam)):
        new = Name(next(names), NameKind.VAR)
        return type(t)(new, t.domain, rename_binders(t.body, names, {**env, t.binder.text: new}))
    return t


@given(small_terms(), small_terms())
def test_alpha_key_agrees_with_alpha_equal_on_random_pairs(a, b):
    assert (alpha_key(a) == alpha_key(b)) == alpha_equal(a, b)


@given(small_terms(), st.lists(st.sampled_from(["X", "Y", "Z", "W", "V"]), min_size=8, max_size=8))
def test_alpha_key_agrees_with_alpha_equal_on_renamed_copies(t, targets):
    renamed = rename_binders(t, iter(targets))
    assert (alpha_key(t) == alpha_key(renamed)) == alpha_equal(t, renamed)
    fresh = rename_binders(t, (f"B{k}" for k in range(8)))
    assert alpha_equal(t, fresh)
    assert alpha_key(t) == alpha_key(fresh)


def test_alpha_key_examples():
    body = Eq(v("X"), v("X"), NAT)
    assert alpha_key(Forall(X, NAT, body)) != alpha_key(Exists(X, NAT, body))
    assert alpha_key(Eq(c("a"), c("a"), NAT)) != alpha_key(Eq(c("a"), c("a"), base("other")))
    assert alpha_key(Eq(c("a"), c("a"), NAT)) != alpha_key(Eq(c("a"), c("a"), None))
    assert alpha_key(Forall(X, NAT, body, span=Span(1, 2, 3))) == alpha_key(Forall(Y, NAT, Eq(
        v("Y"), v("Y"), NAT)))
    # Which binder a variable refers to counts, not only that it is bound.
    xy = Forall(X, NAT, Forall(Y, NAT, Eq(v("X"), v("Y"), NAT)))
    assert alpha_key(xy) != alpha_key(Forall(X, NAT, Forall(Y, NAT, Eq(v("Y"), v("X"), NAT))))
    assert alpha_key(Lam(X, NAT, Lam(Y, NAT, v("X")))) != alpha_key(Lam(X, NAT, Lam(X, NAT, v("X"))))
    # A variable free in one term and bound in the other.
    assert alpha_key(Lam(X, NAT, v("Y"))) != alpha_key(Lam(Y, NAT, v("Y")))
    # Base-type heads go through the binders, as in alpha_equal.
    tyvar = Name("A", NameKind.VAR)
    s = Pi(tyvar, base("$tType"), Pi(X, BaseApp(tyvar), NAT))
    t = Pi(Y, base("$tType"), Pi(X, BaseApp(Y), NAT))
    assert alpha_equal(s, t) and alpha_key(s) == alpha_key(t)
    assert alpha_key(Pi(X, NAT, BaseApp(tyvar))) != alpha_key(Pi(tyvar, NAT, BaseApp(tyvar)))


# -- normalization -----------------------------------------------------------------


def test_beta_reduction():
    redex = App(Lam(X, NAT, App(c("f"), v("X"))), c("a"))
    assert beta_eta_normalize(redex) == App(c("f"), c("a"))


def test_beta_under_binder_and_nested():
    t = Forall(Y, NAT, App(Lam(X, NAT, v("X")), v("Y")))
    assert beta_eta_normalize(t) == Forall(Y, NAT, v("Y"))


def test_eta_contraction():
    t = Lam(X, NAT, App(c("f"), v("X")))
    assert beta_eta_normalize(t) == c("f")
    # X free in the function part: must NOT contract.
    t = Lam(X, NAT, App(App(c("g"), v("X")), v("X")))
    assert isinstance(beta_eta_normalize(t), Lam)


def test_normalize_idempotent_on_samples():
    redex = App(Lam(X, NAT, Eq(v("X"), v("X"), NAT)), App(c("f"), c("a")))
    once = beta_eta_normalize(redex)
    assert beta_eta_normalize(once) == once


def test_normalize_type_arguments():
    ty = base("vec", App(Lam(X, NAT, v("X")), c("n")))
    assert beta_eta_normalize(ty) == base("vec", c("n"))


def test_normalization_budget():
    omega = Lam(X, NAT, App(v("X"), v("X")))
    loop = App(omega, omega)
    with pytest.raises(NormalizationBudgetExceeded):
        beta_eta_normalize(loop)


@given(small_terms())
def test_normalize_returns_a_normal_form_itself(t):
    try:
        normal = beta_eta_normalize(t)
    except NormalizationBudgetExceeded:
        return
    assert beta_eta_normalize(normal) is normal


@given(st.integers(0, 10_000))
def test_normalize_returns_a_normal_type_itself(seed):
    normal = beta_eta_normalize(gen_dependent_type(seed))
    assert beta_eta_normalize(normal) is normal


# -- theory comparison -----------------------------------------------------------------


def test_theory_alpha_equal_renames_telescopes():
    n1 = TypeDecl(Name("vec", NameKind.TYPE), ((X, NAT),), "vec_type")
    n2 = TypeDecl(Name("vec", NameKind.TYPE), ((Y, NAT),), "vec_type")
    assert theory_alpha_equal(Theory((n1,)), Theory((n2,)))


def test_theory_alpha_equal_checks_labels_and_formulae():
    a1 = Axiom("ax", Eq(c("a"), c("a"), NAT))
    a2 = Axiom("ax", Eq(c("a"), c("b"), NAT))
    assert not theory_alpha_equal(Theory((a1,)), Theory((a2,)))
    a3 = Axiom("other", Eq(c("a"), c("a"), NAT))
    assert not theory_alpha_equal(Theory((a1,)), Theory((a3,)))


def test_theory_alpha_equal_const_types():
    d1 = ConstDecl(Name("f", NameKind.CONST), Pi(X, NAT, base("vec", v("X"))), "f")
    d2 = ConstDecl(Name("f", NameKind.CONST), Pi(Y, NAT, base("vec", v("Y"))), "f")
    assert theory_alpha_equal(Theory((d1,)), Theory((d2,)))


# -- spans and paths -----------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda **where: Var(X, **where),
    lambda **where: App(c("f"), c("a"), **where),
    lambda **where: Lam(X, NAT, v("X"), **where),
    lambda **where: And(Top(), Bottom(), **where),
    lambda **where: Not(Top(), **where),
    lambda **where: Eq(c("a"), c("a"), NAT, **where),
    lambda **where: Top(**where),
    lambda **where: Bottom(**where),
    lambda **where: BoolType(**where),
    lambda **where: BaseApp(Name("vec", NameKind.TYPE), (c("a"),), **where),
    lambda **where: Pi(X, NAT, NAT, **where),
], ids=["Var", "App", "Lam", "And", "Not", "Eq", "Top", "Bottom", "BoolType", "BaseApp", "Pi"])
def test_span_is_left_out_of_equality_and_hash(make):
    plain, located = make(), make(span=Span(3, 4, 1))
    assert located.span == Span(3, 4, 1) and plain.span is None
    assert plain == located and hash(plain) == hash(located)


@pytest.mark.parametrize("make", [
    lambda **where: TypeDecl(Name("nat", NameKind.TYPE), (), "nat_type", **where),
    lambda **where: ConstDecl(Name("a", NameKind.CONST), NAT, "a_type", **where),
    lambda **where: Axiom("ax", Top(), **where),
], ids=["TypeDecl", "ConstDecl", "Axiom"])
def test_declaration_span_and_path_are_left_out_of_equality(make):
    plain, located = make(), make(span=Span(1, 1, 3), path="inc.ax")
    assert (located.span, located.path) == (Span(1, 1, 3), "inc.ax")
    assert plain == located and hash(plain) == hash(located)


def test_leaf_classes_stay_distinct():
    assert Top() != Bottom() and Top() != BoolType() and Bottom() != BoolType()
