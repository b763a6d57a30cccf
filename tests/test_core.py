"""Core AST: substitution, alpha-equivalence, normalization."""

import inspect
import re
import weakref

import pytest
from hypothesis import given, strategies as st

from dtf import core
from dtf.core import (
    And,
    App,
    Axiom,
    BaseApp,
    Binder,
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
from dtf.diagnostics import Diagnostic, Span, error, warning
from dtf.printer import print_problem
from dtf.prover import SzsVerdict
from dtf.syntax import Problem, locate, parse_problem

from genutil import gen_dependent_type, gen_formula_problem
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


def test_pi_is_the_type_binder_and_stays_apart_from_the_term_binders():
    body = base("vec", v("X"))
    made = [Pi(X, NAT, body), Lam(X, NAT, body), Forall(X, NAT, body)]
    assert all(isinstance(b, Binder) for b in made)
    for i, a in enumerate(made):
        for b in made[i + 1:]:
            assert a != b and b != a
            assert not alpha_equal(a, b) and not alpha_equal(b, a)
            assert alpha_key(a) != alpha_key(b)
    pi = Pi(Y, NAT, base("vec", v("X"), v("Y")))
    assert pi.codomain is pi.body
    assert substitute(pi, X, c("a")) == Pi(Y, NAT, base("vec", c("a"), v("Y")))
    renamed = substitute(pi, X, v("Y"))  # the binder is freshened, not captured
    assert type(renamed) is Pi and renamed.binder != Y
    assert renamed.codomain == base("vec", v("Y"), Var(renamed.binder))
    redex = Pi(Y, NAT, base("vec", App(Lam(X, NAT, v("X")), c("a"))))
    assert beta_eta_normalize(redex) == Pi(Y, NAT, base("vec", c("a")))


# -- the records: equality, hash, repr and immutability --------------------------------


def _pairs(a, b):
    """The compared parts of two declarations, paired: each declaration, then its
    formula, type or telescope types."""
    yield a, b
    if isinstance(a, Axiom):
        yield a.formula, b.formula
    elif isinstance(a, ConstDecl):
        yield a.ty, b.ty
    else:
        yield from ((x, y) for (_, x), (_, y) in zip(a.telescope, b.telescope))


@pytest.mark.parametrize("seed", range(12))
def test_a_problem_parsed_at_other_lines_is_equal_apart_from_spans(seed):
    text = print_problem(gen_formula_problem(seed))
    first, second = parse_problem(text), parse_problem("\n\n" + text)
    assert isinstance(first, Problem) and isinstance(second, Problem)
    assert len(first.decls()) == len(second.decls())
    for one, other in zip(first.decls(), second.decls()):
        for a, b in _pairs(one, other):
            assert locate(text, a.span).line + 2 == locate("\n\n" + text, b.span).line
            assert a == b and hash(a) == hash(b), (a, b)


def test_binders_of_one_binder_domain_and_body_are_pairwise_unequal():
    made = [cls(X, NAT, Eq(v("X"), v("X"), NAT)) for cls in (Forall, Exists, Lam, Pi)]
    for i, a in enumerate(made):
        for b in made[i + 1:]:
            assert a != b and b != a, (a, b)
    assert [repr(b).split("(")[0] for b in made] == ["Forall", "Exists", "Lam", "Pi"]
    assert repr(made[0]) == ("Forall(binder=Name(text='X', kind=<NameKind.VAR: 'variable'>), "
                             "domain=" + repr(NAT) + ", body=" + repr(made[0].body) + ")")


@pytest.mark.parametrize("cls, rest", [(TypeDecl, ((),)), (ConstDecl, (NAT,))],
                         ids=["TypeDecl", "ConstDecl"])
def test_type_and_constant_declarations_ignore_label_span_and_path(cls, rest):
    name = Name("a", NameKind.CONST)
    made = [cls(name, *rest), cls(name, *rest, "a_type"), cls(name, *rest, "other"),
            cls(name, *rest, span=Span(2, 1, 3)), cls(name, *rest, path="inc.ax")]
    assert all(d == made[0] and hash(d) == hash(made[0]) for d in made)
    assert "label" not in repr(made[1]) and "inc.ax" not in repr(made[4])
    assert cls(Name("b", NameKind.CONST), *rest) != made[0]


@pytest.mark.parametrize("node, field", [
    (v("X"), "name"), (Forall(X, NAT, Top()), "body"), (NAT, "args"), (Top(), "span"),
    (Axiom("ax", Top()), "path"), (Theory(()), "decls"), (X, "text"), (Problem(), "goal"),
])
def test_assigning_or_deleting_a_field_raises(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, None)
    with pytest.raises(AttributeError):
        delattr(node, field)
    with pytest.raises(AttributeError):
        node.no_such_field = 1


def _concrete_nodes(cls=core.Node) -> set:
    """The classes of dtf.core below cls that have no subclass there."""
    below = {sub for sub in cls.__subclasses__() if sub.__module__ == "dtf.core"}
    return set().union(*map(_concrete_nodes, below)) if below else {cls}


CONCRETE_NODES = sorted(_concrete_nodes(), key=lambda cls: cls.__name__)


def test_the_node_walk_finds_every_concrete_class():
    assert {cls.__name__ for cls in CONCRETE_NODES} == {
        "BaseApp", "BoolType", "Var", "Const", "App", "Lam", "Forall", "Exists", "Choice", "Pi",
        "Implies", "And", "Or", "Not", "Eq", "Top", "Bottom", "TypeDecl", "ConstDecl", "Axiom"}


@pytest.mark.parametrize("cls", CONCRETE_NODES, ids=lambda cls: cls.__name__)
def test_every_node_reads_back_what_it_was_built_from_and_stays_immutable(cls):
    params = inspect.signature(cls).parameters
    fields = [name for name in params if name not in ("span", "path")]
    values = [f"{cls.__name__}.{name}" for name in fields]
    if issubclass(cls, core.Decl):
        # Declarations take span and path by keyword only.
        assert params["span"].kind is params["path"].kind is inspect.Parameter.KEYWORD_ONLY
        with pytest.raises(TypeError):
            cls(*values, 7)
        nodes = [cls(*values, span=7, path="a.p")]
        assert nodes[0].path == "a.p"
    else:
        # Term and type nodes take span last, positionally or by keyword.
        assert list(params)[-1] == "span"
        assert params["span"].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        nodes = [cls(*values, 7), cls(*values, span=7)]
        assert nodes[0] == nodes[1] and hash(nodes[0]) == hash(nodes[1])
        assert repr(nodes[0]) == repr(nodes[1])
    for node in nodes:
        assert type(node) is cls and node.span == 7
        assert [getattr(node, name) for name in fields] == values
        for name in (*fields, "span"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        with pytest.raises(AttributeError):
            node.no_such_field = 1
        assert [getattr(node, name) for name in fields] == values and node.span == 7


def test_no_record_sets_a_slot_by_name():
    # Each record's __init__ writes its slots through descriptor setters bound
    # once in dtf.core: setting them by name through object.__setattr__ costs
    # every node about twice as much.
    lines = inspect.getsource(core).splitlines()
    assert [f"core.py:{n}: {line}" for n, line in enumerate(lines, 1)
            if re.search(r"object\.__setattr__|_set\(", line)] == []


def test_a_problem_can_be_weakly_referenced():
    problem = parse_problem("thf(nat_type, type, nat: $tType).\n")
    ref = weakref.ref(problem)
    assert ref() is problem
    del problem
    assert ref() is None


def test_diagnostics_and_verdicts_compare_by_value():
    where = Span(1, 2, 3)
    assert error("m", where, "a.p") == Diagnostic("error", where, "m", "a.p")
    assert error("m", where, "a.p") != warning("m", where, "a.p")
    assert error("m", where, "a.p") != error("m", where, "b.p")
    assert hash(error("m", where)) == hash(error("m", where))
    assert SzsVerdict("Theorem") == SzsVerdict("Theorem", None) != SzsVerdict("Theorem", "x")
    assert SzsVerdict("Theorem").proved and not SzsVerdict("GaveUp").proved
