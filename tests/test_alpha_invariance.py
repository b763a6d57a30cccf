"""The deep check must not depend on the names of bound variables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtf.core import (
    App,
    Axiom,
    BaseApp,
    Binder,
    ConstDecl,
    Context,
    Name,
    Pi,
    Theory,
    TypeDecl,
    Var,
    VarDecl,
    alpha_equal,
    children,
    fresh_name,
    map_children,
)
from dtf.deep import check_problem
from dtf.printer import format_type
from dtf.syntax import Problem, parse_problem

from theoryutil import axioms, const_decl

from genutil import gen_formula_problem, gen_problem

CAPTURE_REPRO = """\
thf(nat_type, type, nat: $tType).
thf(vec_type, type, vec: nat > $tType).
thf(f_type, type, f: !> [N: nat]: (vec @ N)).
thf(g_type, type, g: !> [K: nat]: ((nat > (vec @ K)) > $o)).
thf(bad, axiom, ! [N: nat]: (g @ N @ f)).
"""

# The same problem with the bound N of the axiom renamed to M.
CAPTURE_TWIN = CAPTURE_REPRO.replace("! [N: nat]: (g @ N @ f)", "! [M: nat]: (g @ M @ f)")


def rename_bound(t, pick, env=None):
    """Rename every bound variable of a term or type.

    pick(old_text) proposes the new name.  A proposal already taken by an
    enclosing binder is freshened, so the result stays alpha-equal to t.
    """
    env = env or {}
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, (Binder, Pi)):
        taken = {name.text for name in env.values()}
        new = Name(fresh_name(pick(t.binder.text), taken), t.binder.kind)
        domain = rename_bound(t.domain, pick, env)
        return type(t)(new, domain, rename_bound(t.body, pick, {**env, t.binder: new}))
    if isinstance(t, App):
        return App(rename_bound(t.fun, pick, env), rename_bound(t.arg, pick, env))
    if isinstance(t, BaseApp):
        return BaseApp(t.head, tuple(rename_bound(a, pick, env) for a in t.args))
    return map_children(t, rename_bound, pick, env)


def _bound_names(t, acc: set) -> set:
    if isinstance(t, (Binder, Pi)):
        acc.add(t.binder.text)
    for child in children(t):
        _bound_names(child, acc)
    return acc


def bound_names(problem: Problem) -> list:
    """Every name bound anywhere in the problem, declarations included."""
    acc: set = set()
    for decl in problem.theory.decls:
        if isinstance(decl, TypeDecl):
            for name, ty in decl.telescope:
                acc.add(name.text)
                _bound_names(ty, acc)
        else:
            _bound_names(decl.ty if isinstance(decl, ConstDecl) else decl.formula, acc)
    if problem.conjecture is not None:
        _bound_names(problem.conjecture, acc)
    return sorted(acc)


def rename_problem(problem: Problem, pick) -> Problem:
    def rename(d):
        if not isinstance(d, Axiom):
            return d
        return Axiom(d.label, rename_bound(d.formula, pick), d.role, span=d.span, path=d.path)

    goal = problem.goal and rename(problem.goal)
    return Problem(problem.roles, Theory(tuple(map(rename, problem.theory.decls))), goal,
                   problem.polymorphic, problem.path, problem.warnings)


def rename_pool(problem: Problem) -> list:
    """Names bound elsewhere in the problem, plus new ones."""
    return bound_names(problem) + ["Z", "N0", "X1_"]


def renamings(problem: Problem) -> list:
    """Two fixed renamings: every binder onto one name, and a suffix."""
    pool = rename_pool(problem)
    return [lambda old: pool[0], lambda old: old + "0"]


def drawn_renaming(data, problem: Problem):
    """A renaming whose every choice hypothesis draws: a name of the pool,
    the old name itself, or the old name with a suffix."""
    pool = rename_pool(problem)
    return lambda old: data.draw(st.sampled_from(pool + [old, old + "0"]), label=old)


def assert_alpha_invariant(problem: Problem, picks: list) -> None:
    base = check_problem(problem)
    assert base.diagnostics == []
    for pick in picks:
        renamed = rename_problem(problem, pick)
        for a, b in zip(problem.theory.decls, renamed.theory.decls):
            if isinstance(a, Axiom):
                assert alpha_equal(a.formula, b.formula)
        report = check_problem(renamed)
        assert report.diagnostics == []
        assert len(report.obligations) == len(base.obligations)
        assert len(report.discharged) == len(base.discharged)
        for ours, theirs in zip(base.obligations + base.discharged,
                                report.obligations + report.discharged):
            assert alpha_equal(ours.formula, theirs.formula)


POSITIVE = ["choice.p", "dep_impl.p", "dep_impl_rev.p", "desugar.p", "hol.p",
            "list_append.p", "roles.p", "vect.p"]


def parse_corpus(corpus_dir, name: str) -> Problem:
    path = corpus_dir / name
    problem = parse_problem(path.read_text(), str(path))
    assert isinstance(problem, Problem)
    return problem


@pytest.mark.parametrize("name", POSITIVE)
def test_corpus_is_alpha_invariant(corpus_dir, name):
    problem = parse_corpus(corpus_dir, name)
    assert_alpha_invariant(problem, renamings(problem))


@pytest.mark.parametrize("seed", range(20))
def test_generated_problems_are_alpha_invariant(seed):
    problem = gen_problem(seed)
    assert_alpha_invariant(problem, renamings(problem))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(POSITIVE), data=st.data())
def test_corpus_is_alpha_invariant_under_drawn_renamings(corpus_dir, name, data):
    problem = parse_corpus(corpus_dir, name)
    assert_alpha_invariant(problem, [drawn_renaming(data, problem)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), with_conjecture=st.booleans(), data=st.data())
def test_generated_problems_are_alpha_invariant_under_drawn_renamings(seed, with_conjecture, data):
    problem = (gen_formula_problem if with_conjecture else gen_problem)(seed)
    assert_alpha_invariant(problem, [drawn_renaming(data, problem)])


def test_capture_repro_is_alpha_invariant():
    problem = parse_problem(CAPTURE_REPRO)
    assert isinstance(problem, Problem)
    assert_alpha_invariant(problem, renamings(problem))


def test_pi_comparison_does_not_capture():
    # Comparing f's type with the expected `nat > vec @ N` must not rename
    # f's binder onto the N that is free in the expected type.
    repro = check_problem(parse_problem(CAPTURE_REPRO))
    twin = check_problem(parse_problem(CAPTURE_TWIN))
    assert len(repro.obligations) == len(twin.obligations) == 1
    assert alpha_equal(repro.obligations[0].formula, twin.obligations[0].formula)
    ctx = repro.obligations[0].context
    assert [e.name.text for e in ctx.entries] == ["N", "N0"]


# Arrow binders invented by the elaborator (`X1_`, `X2_`, ...) must not
# capture a user variable of the same name.
ARROW_PI = """\
thf(nat_type, type, nat: $tType).
thf(vec_type, type, vec: nat > $tType).
thf(f_type, type, f: !> [X1_: nat]: (nat > (vec @ X1_))).
thf(g_type, type, g: !> [M: nat]: (nat > (vec @ M))).
thf(fg, axiom, ! [K: nat]: ((f @ K) = (g @ K))).
"""

ARROW_FORALL = """\
thf(nat_type, type, nat: $tType).
thf(vec_type, type, vec: nat > $tType).
thf(p_type, type, p: !> [N: nat]: ((nat > (vec @ N)) > $o)).
thf(ax, axiom, ! [X1_: nat, F: nat > (vec @ X1_)]: (p @ X1_ @ F)).
"""


@pytest.mark.parametrize("repro", [ARROW_PI, ARROW_FORALL], ids=["pi", "forall"])
def test_invented_arrow_binder_does_not_capture(repro):
    # The repro and its twin with the user variable renamed to Y.
    for text in (repro, repro.replace("X1_", "Y")):
        problem = parse_problem(text)
        assert isinstance(problem, Problem)
        report = check_problem(problem)
        assert report.diagnostics == []
        assert report.obligations == [] and report.discharged == []


def test_invented_arrow_binder_prints_back_unchanged():
    problem = parse_problem(ARROW_PI)
    f = const_decl(problem.theory, "f").ty
    assert f.binder.text == "X1_" and f.codomain.binder.text != "X1_"
    assert format_type(f) == "!> [X1_: nat]: (nat > (vec @ X1_))"
    forall = axioms(parse_problem(ARROW_FORALL).theory)[-1].formula
    arrow = forall.body.domain
    assert arrow.binder.text != "X1_"
    assert format_type(arrow) == "nat > (vec @ X1_)"


# -- shadowing audit -----------------------------------------------------------------
#
# `Context.var_type` and `close_obligation` look variables up by name text, which
# is sound only while the variables of a context have pairwise distinct names:
# the elaborator renames a shadowing binder, and `type_equal` freshens its Pi
# binder.

SHADOWING = """\
thf(nat_type, type, nat: $tType).
thf(z_type, type, z: nat).
thf(s_type, type, s: nat > nat).
thf(vec_type, type, vec: nat > $tType).
thf(p_type, type, p: !> [N: nat]: ((vec @ N) > $o)).
thf(f_type, type, f: !> [N: nat]: (nat > (vec @ N))).
thf(h_type, type, h: !> [W: nat]: (vec @ W)).
thf(k_type, type, k: !> [M: nat]: (vec @ (s @ M))).
thf(nested, axiom, ! [N: nat]: ((N = z) => ! [N: nat]: (N = N))).
thf(arrow, axiom, ! [X1_: nat, F: nat > (vec @ X1_)]: ! [X1_: nat]: (p @ X1_ @ (F @ X1_))).
thf(pi, axiom, ! [N: nat, G: nat > (vec @ N)]: (G = (f @ N))).
thf(pi_binder, axiom, ! [W: nat]: (h = k)).
"""


def context_names(problem: Problem) -> list:
    """The variable names of every context that the deep check of problem
    extends by a variable, each asserted pairwise distinct."""
    built = []
    push_var = Context.push_var

    def recording_push_var(self, name, ty):
        ctx = push_var(self, name, ty)
        built.append([e.name.text for e in ctx.entries if isinstance(e, VarDecl)])
        return ctx

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Context, "push_var", recording_push_var)
        report = check_problem(problem)
    assert report.diagnostics == []
    for names in built:
        assert len(set(names)) == len(names), names
    return built


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), with_conjecture=st.booleans())
def test_generated_contexts_have_distinct_names(seed, with_conjecture):
    context_names((gen_formula_problem if with_conjecture else gen_problem)(seed))


@pytest.mark.parametrize("name", POSITIVE)
def test_corpus_contexts_have_distinct_names(corpus_dir, name):
    context_names(parse_corpus(corpus_dir, name))


def test_shadowing_binders_get_distinct_context_names():
    problem = parse_problem(SHADOWING)
    assert isinstance(problem, Problem)
    # `nested` and `arrow` each bind a name already in their context, and
    # comparing the types of `h` and `k` binds h's `W` under the axiom's `W`.
    names = context_names(problem)
    assert ["N", "N0"] in names and ["X1_", "F", "X1_0"] in names and ["W", "W0"] in names
