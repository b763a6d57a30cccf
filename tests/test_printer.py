"""Canonical printing and the print -> parse round trip."""

import pytest
from hypothesis import given, strategies as st

import genutil
from theoryutil import axioms, theory_alpha_equal
from dtf.core import (
    TYPE_KIND,
    App,
    Axiom,
    BaseApp,
    Const,
    ConstDecl,
    Eq,
    Forall,
    Lam,
    Name,
    NameKind,
    Not,
    Pi,
    Theory,
    Var,
    alpha_equal,
)
from dtf.printer import (
    atom,
    check_simply_typed,
    format_annotated,
    format_term,
    format_type,
    print_problem,
    print_th0,
)
from dtf.syntax import Problem, parse_file, parse_problem


def nat() -> BaseApp:
    return BaseApp(Name("nat", NameKind.TYPE))


X = Name("X", NameKind.VAR)


# -- atoms --------------------------------------------------------------------


def test_atom_bare_and_quoted():
    assert atom("zero") == "zero"
    assert atom("my zero") == "'my zero'"
    assert atom("it's") == "'it\\'s'"
    assert atom("$o") == "'$o'"
    assert atom("Zebra") == "'Zebra'"


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               min_size=1, max_size=12))
def test_atom_always_lexes_back(text):
    from dtf.syntax import tokenize

    rendered = atom(text)
    tokens = tokenize(rendered)
    assert len(tokens) == 2  # the atom plus eof
    assert tokens[0].text == text


# -- types ---------------------------------------------------------------------


def test_format_simple_types():
    assert format_type(nat()) == "nat"
    assert format_type(Pi(X, nat(), nat())) == "nat > nat"
    arr = Pi(X, Pi(X, nat(), nat()), nat())
    assert format_type(arr) == "(nat > nat) > nat"


def test_format_type_kind_and_a_user_dollar_type():
    assert format_type(TYPE_KIND) == "$tType"
    assert format_type(Pi(X, TYPE_KIND, BaseApp(X))) == "!> [X: $tType]: X"
    assert format_type(BaseApp(Name("$i", NameKind.TYPE))) == "'$i'"


def test_format_dependent_type():
    vec_n = BaseApp(Name("vec", NameKind.TYPE), (Var(X),))
    ty = Pi(X, nat(), Pi(Name("Y", NameKind.VAR), vec_n, nat()))
    assert format_type(ty) == "!> [X: nat]: ((vec @ X) > nat)"


def test_format_base_with_term_argument():
    vec = BaseApp(Name("vec", NameKind.TYPE),
                  (App(Const(Name("suc", NameKind.CONST)), Const(Name("zero", NameKind.CONST))),))
    assert format_type(vec) == "vec @ (suc @ zero)"


# -- terms ---------------------------------------------------------------------


def test_format_term_shapes():
    f = Const(Name("f", NameKind.CONST))
    a = Const(Name("a", NameKind.CONST))
    assert format_term(App(App(f, a), a)) == "f @ a @ a"
    assert format_term(Not(Eq(a, a, nat()))) == "~ (a = a)"
    assert format_term(Forall(X, nat(), Eq(Var(X), a, nat()))) == "! [X: nat]: ((X = a))"


def test_format_merges_binder_groups():
    y = Name("Y", NameKind.VAR)
    t = Forall(X, nat(), Forall(y, nat(), Eq(Var(X), Var(y), nat())))
    assert format_term(t) == "! [X: nat, Y: nat]: ((X = Y))"


def test_format_lambda_argument_parenthesized():
    lam = Lam(X, nat(), Var(X))
    applied = App(lam, Const(Name("zero", NameKind.CONST)))
    text = format_term(applied)
    assert text.startswith("(^ [X: nat]:")
    assert "@ zero" in text


def test_format_annotated_wraps_long_lines():
    body = "p" + " & p" * 40
    line = format_annotated("name", "axiom", body)
    assert line.startswith("thf(name, axiom,\n    ")
    short = format_annotated("name", "axiom", "p")
    assert short == "thf(name, axiom, p)."


# -- round trips -----------------------------------------------------------------


def _round_trip(problem: Problem) -> None:
    text = print_problem(problem)
    reparsed = parse_problem(text)
    assert isinstance(reparsed, Problem), [d.message for d in reparsed]
    assert theory_alpha_equal(problem.theory, reparsed.theory), text
    if problem.conjecture is None:
        assert reparsed.conjecture is None
    else:
        assert alpha_equal(problem.conjecture, reparsed.conjecture), text


def test_round_trip_worked_example(corpus_dir):
    _round_trip(parse_file(str(corpus_dir / "list_append.p")))


def test_round_trip_quoted_atoms(corpus_dir):
    _round_trip(parse_file(str(corpus_dir / "roles.p")))


PARENTHESES_IN_ATOMS = """
thf(a_type, type, 'a(': $o).
thf(b_type, type, 'b)': $o).
thf(o_type, type, '(': $o).
thf(c_type, type, c: $o).
thf(f_type, type, 'f(x)': $o > $o > $o).
thf(ax1, axiom, ('a(' = 'b)')).
thf(ax2, axiom, ('f(x)' @ 'a(' @ ('b)' & 'a('))).
thf(ax3, axiom, ~ ('f(x)' @ ('a(' = 'b)') @ 'b)')).
thf(ax4, axiom, ('f(x)' @ ((^ [X: $o]: ('(' = X)) @ ('b)' = c)) @ 'a(')).
"""


def test_round_trip_parentheses_inside_quoted_atoms():
    problem = parse_problem(PARENTHESES_IN_ATOMS)
    _round_trip(problem)
    # The application in ax4's first argument must keep its parentheses.
    assert format_term(axioms(problem.theory)[-1].formula) == (
        "'f(x)' @ ((^ [X: $o]: (('(' = X))) @ ('b)' = c)) @ 'a('")


@pytest.mark.parametrize("seed", range(25))
def test_round_trip_generated_problems(seed):
    _round_trip(genutil.gen_formula_problem(seed))


# -- TH0 guard ----------------------------------------------------------------------


def test_print_th0_refuses_dependent_types(corpus_dir):
    problem = parse_file(str(corpus_dir / "list_append.p"))
    with pytest.raises(ValueError, match="term arguments"):
        print_th0(problem)


def test_print_th0_accepts_simply_typed(corpus_dir):
    problem = parse_file(str(corpus_dir / "hol.p"))
    text = print_th0(problem)
    assert "thf(p_holds_ga, conjecture" in text


def test_check_simply_typed_rejects_dependent_pi():
    vec_x = BaseApp(Name("vec", NameKind.TYPE), (Var(X),))
    decl = ConstDecl(Name("f", NameKind.CONST), Pi(X, nat(), vec_x), "f_type")
    problem = Problem(theory=Theory((decl,)))
    with pytest.raises(ValueError, match="dependent product|term arguments"):
        check_simply_typed(problem)


def _vec_zero() -> BaseApp:
    return BaseApp(Name("vec", NameKind.TYPE), (Const(Name("zero", NameKind.CONST)),))


@pytest.mark.parametrize("problem", [
    Problem(theory=Theory(()),
            goal=Axiom("goal", Forall(X, _vec_zero(), Eq(Var(X), Var(X), _vec_zero())),
                       "conjecture")),
    Problem(theory=Theory((ConstDecl(Name("f", NameKind.CONST),
                                     Pi(X, nat(), Pi(X, nat(), _vec_zero())), "f_type"),))),
], ids=["binder_domain", "codomain"])
def test_check_simply_typed_finds_a_nested_dependent_type(problem):
    for check in (check_simply_typed, print_th0):
        with pytest.raises(ValueError, match="type 'vec' takes term arguments"):
            check(problem)
