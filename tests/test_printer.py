"""Canonical printing and the print -> parse round trip."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import genutil
from theoryutil import axioms, theory_alpha_equal
from dtf.core import (
    BOOL,
    TYPE_KIND,
    App,
    Axiom,
    BaseApp,
    Const,
    ConstDecl,
    Eq,
    Exists,
    Forall,
    Implies,
    Lam,
    Name,
    NameKind,
    Not,
    Pi,
    Theory,
    TypeDecl,
    Var,
    alpha_equal,
    children,
    free_vars,
)
from dtf.erasure import erase_problem
from dtf.printer import (
    atom,
    check_simple,
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


def _nested(n: int, level) -> object:
    """level(t, i) applied n times, innermost first, around the constant `a`."""
    t = Const(Name("a", NameKind.CONST))
    for i in range(n):
        t = level(t, i)
    return t


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


_S = Const(Name("s", NameKind.CONST))
_P = Const(Name("p", NameKind.CONST))
_BINDERS = (Forall, Exists)


@pytest.mark.parametrize("level", [
    lambda t, i: App(_S, t),
    lambda t, i: Implies(_P, t),
    lambda t, i: Not(t),
    lambda t, i: Eq(t, _P, BOOL) if i % 2 else App(_S, t),
    lambda t, i: _BINDERS[i % 2](Name(f"X{i}", NameKind.VAR), BOOL, t),
], ids=["application spine", "implications", "negations", "equations in arguments",
        "alternating binders"])
def test_format_term_takes_one_frame_a_level(level):
    # An operand is parenthesized by the call that formats it, so a term n
    # levels deep prints within n frames and a few more.
    n = 600
    term = _nested(n, level)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + n + 50)
    try:
        text = format_term(term)
    finally:
        sys.setrecursionlimit(limit)
    assert text.count("(") == text.count(")") >= n - 1


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


# -- the TH0 check against the walk it replaced ---------------------------------


def reference_check_simple(node):
    """`check_simple` as it was when every node went through `children`."""
    if isinstance(node, (ConstDecl, Axiom)):
        reference_check_simple(node.ty if isinstance(node, ConstDecl) else node.formula)
    elif isinstance(node, TypeDecl) and node.telescope or isinstance(node, BaseApp) and node.args:
        head = node.name if isinstance(node, TypeDecl) else node.head
        raise ValueError(f"cannot print TH0: type {head.text!r} takes term arguments")
    elif isinstance(node, Pi) and node.binder.text in free_vars(node.codomain):
        raise ValueError(f"cannot print TH0: dependent product over {node.binder.text!r}")
    elif not isinstance(node, TypeDecl):
        for child in children(node):
            reference_check_simple(child)
    return node


def _verdict(check, node) -> str:
    try:
        returned = check(node)
    except ValueError as exc:
        return str(exc)
    assert returned is node
    return "simple"


def _subtrees(decl) -> list:
    """decl, then every node below its formula, type or telescope."""
    found = [decl]
    stack = ([decl.formula] if isinstance(decl, Axiom) else [decl.ty] if isinstance(decl, ConstDecl)
             else [ty for _, ty in decl.telescope])
    while stack:
        t = stack.pop()
        found.append(t)
        stack.extend(children(t))
    return found


def _vec(arg) -> BaseApp:
    return BaseApp(Name("vec", NameKind.TYPE), (arg,))


_F = Const(Name("f", NameKind.CONST))
_N = Name("N", NameKind.VAR)
DEPENDENT_BY_HAND = [
    # A lambda in an argument position, over `vec @ zero`.
    Axiom("lam_arg", App(App(_F, Lam(X, _vec_zero(), Var(X))), Const(Name("a", NameKind.CONST)))),
    # A dependent `Eq.at` under an application.
    Axiom("eq_arg", App(_F, Eq(Var(X), Var(X), _vec(Var(X))))),
    # A dependent product nested in a constant's type.
    ConstDecl(Name("g", NameKind.CONST),
              Pi(X, nat(), Pi(X, Pi(_N, nat(), _vec(Var(_N))), BOOL)), "g_type"),
]


def _with_erasures(problems) -> list:
    return [d for p in problems for d in p.decls() + erase_problem(p).decls()]


def _differential_inputs() -> list:
    """Declarations; each node below the small ones is checked on its own too."""
    generate = genutil.load_generator()
    problems = [genutil.gen_problem(seed) for seed in range(40)]
    problems += [genutil.gen_formula_problem(seed) for seed in range(40)]
    problems += [parse_file(str(path))
                 for path in sorted((Path(__file__).resolve().parents[1] / "corpus").glob("*.p"))]
    small = _with_erasures(problems) + DEPENDENT_BY_HAND + [
        ConstDecl(Name(f"c{seed}", NameKind.CONST), genutil.gen_dependent_type(seed))
        for seed in range(60)]
    families = _with_erasures(parse_problem(generate.family(name, 1, 0.05)[0])
                              for name in ("axioms", "terms", "discharge"))
    return [node for decl in small for node in _subtrees(decl)] + families


def test_check_simple_gives_the_verdicts_and_messages_of_the_walk_it_replaced():
    verdicts = set()
    for node in _differential_inputs():
        verdict = _verdict(check_simple, node)
        assert verdict == _verdict(reference_check_simple, node), node
        verdicts.add(verdict.split(":")[0])
    assert verdicts == {"simple", "cannot print TH0"}
    messages = [_verdict(check_simple, decl) for decl in DEPENDENT_BY_HAND]
    assert messages == ["cannot print TH0: type 'vec' takes term arguments"] * 2 + [
        "cannot print TH0: dependent product over 'N'"]
