"""Deep checking: obligation generation, discharge, closure, diagnostics."""

import re
from pathlib import Path

import pytest

from dtf import deep
from dtf.cli import EXIT_CHECK, EXIT_OK, run
from dtf.core import (
    Assumption,
    Axiom,
    BaseApp,
    Const,
    ConstDecl,
    Context,
    Eq,
    Exists,
    Forall,
    Implies,
    Name,
    NameKind,
    TYPE_KIND,
    Theory,
    TypeDecl,
    Var,
    alpha_equal,
    beta_eta_normalize,
)
from dtf.deep import (
    DeepChecker,
    check_problem,
    close_obligation,
    export_obligations,
    obligation_problem,
)
from dtf.diagnostics import DiagnosticError
from dtf.shallow import check_shallow
from dtf.syntax import Problem, parse_file, parse_problem

from genutil import gen_formula_problem, gen_problem, load_generator

REPO = Path(__file__).resolve().parents[1]

generate = load_generator()


def nat() -> BaseApp:
    return BaseApp(Name("nat", NameKind.TYPE))


def var(text: str) -> Var:
    return Var(Name(text, NameKind.VAR))


def const(text: str) -> Const:
    return Const(Name(text, NameKind.CONST))


# -- closure -------------------------------------------------------------------


def test_close_prunes_unused_variables():
    ctx = Context().push_var(Name("X", NameKind.VAR), nat()).push_var(
        Name("Y", NameKind.VAR), nat())
    goal = Eq(var("X"), const("c"), nat())
    closed = close_obligation(ctx, goal)
    assert isinstance(closed, Forall)
    assert closed.binder.text == "X"
    assert not isinstance(closed.body, Forall)


def test_close_keeps_variables_needed_by_types():
    n = Name("N", NameKind.VAR)
    v = Name("V", NameKind.VAR)
    vec_n = BaseApp(Name("vec", NameKind.TYPE), (Var(n),))
    ctx = Context().push_var(n, nat()).push_var(v, vec_n)
    goal = Eq(Var(v), Var(v), vec_n)
    closed = close_obligation(ctx, goal)
    # V is free in the goal; N is needed only because V's type mentions it.
    assert isinstance(closed, Forall) and closed.binder.text == "N"
    assert isinstance(closed.body, Forall) and closed.body.binder.text == "V"


def test_close_orders_unlabeled_premises():
    a1 = Eq(const("a"), const("a"), nat())
    a2 = Eq(const("b"), const("b"), nat())
    ctx = Context().push_assumption(a1).push_assumption(a2)
    goal = Eq(const("c"), const("c"), nat())
    closed = close_obligation(ctx, goal)
    assert isinstance(closed, Implies)
    assert alpha_equal(closed.left, a1)
    assert isinstance(closed.right, Implies)
    assert alpha_equal(closed.right.left, a2)
    assert alpha_equal(closed.right.right, goal)


def test_close_excludes_labeled_assumptions():
    axiom = Eq(const("a"), const("a"), nat())
    ctx = Context().push_assumption(axiom, label="ax1")
    goal = Eq(const("c"), const("c"), nat())
    closed = close_obligation(ctx, goal)
    assert alpha_equal(closed, goal)


def test_close_keeps_variable_used_only_by_assumption():
    x = Name("X", NameKind.VAR)
    ctx = Context().push_var(x, nat()).push_assumption(Eq(Var(x), const("a"), nat()))
    goal = Eq(const("c"), const("c"), nat())
    closed = close_obligation(ctx, goal)
    assert isinstance(closed, Forall) and closed.binder.text == "X"
    assert isinstance(closed.body, Implies)


# -- whole problems --------------------------------------------------------------


def test_worked_example_report(corpus_dir, fixtures_dir):
    problem = parse_file(str(corpus_dir / "list_append.p"))
    report = check_problem(problem)
    assert report.ok
    assert len(report.discharged) == 1
    assert len(report.obligations) == 1

    done = report.discharged[0]
    assert done.label == "ob1"
    assert done.discharged_by == "ax1"
    assert done.theory_prefix == 10  # nine declarations plus ax1 precede ax2

    residual = report.obligations[0]
    assert residual.label == "ob2"
    assert residual.theory_prefix == 12
    assert "equation sides must have equal types" in residual.origin

    oracle = parse_file(str(fixtures_dir / "list_append_obligation.p"))
    assert isinstance(oracle, Problem)
    assert alpha_equal(beta_eta_normalize(residual.formula),
                       beta_eta_normalize(oracle.conjecture))


def test_choice_emits_existence_obligation(corpus_dir):
    problem = parse_file(str(corpus_dir / "choice.p"))
    report = check_problem(problem)
    assert report.ok
    assert report.discharged == []
    assert len(report.obligations) == 1
    ob = report.obligations[0]
    assert isinstance(ob.goal, Exists)
    assert "choice requires a provable witness" in ob.origin
    assert ob.context.entries == ()


def test_forward_implication_context_has_assumption(corpus_dir):
    problem = parse_file(str(corpus_dir / "dep_impl.p"))
    report = check_problem(problem)
    assert report.ok
    assert report.obligations == []
    assert len(report.discharged) == 1
    ob = report.discharged[0]
    assert ob.discharged_by == "local assumption"
    unlabeled = [e for e in ob.context.entries
                 if isinstance(e, Assumption) and e.label is None]
    assert len(unlabeled) == 1
    assert alpha_equal(beta_eta_normalize(unlabeled[0].formula),
                       beta_eta_normalize(ob.goal))


def test_reversed_implication_context_lacks_assumption(corpus_dir):
    problem = parse_file(str(corpus_dir / "dep_impl_rev.p"))
    report = check_problem(problem)
    assert report.ok
    assert report.discharged == []
    assert len(report.obligations) == 1
    ob = report.obligations[0]
    unlabeled = [e for e in ob.context.entries
                 if isinstance(e, Assumption) and e.label is None]
    assert unlabeled == []


def test_plain_hol_problem_has_no_obligations(corpus_dir):
    problem = parse_file(str(corpus_dir / "hol.p"))
    report = check_problem(problem)
    assert report.ok
    assert report.obligations == []
    assert report.discharged == []


def test_ground_index_mismatch_stays_residual(corpus_dir):
    problem = parse_file(str(corpus_dir / "vect.p"))
    report = check_problem(problem)
    assert report.ok
    assert len(report.obligations) == 1
    ob = report.obligations[0]
    # Ground conjecture: no bound variables and no local assumptions.
    assert ob.context.entries == ()
    assert alpha_equal(ob.formula, ob.goal)


def test_types_equal_after_normalization_leave_no_obligation(tmp_path, capsys):
    # p expects a vec @ ((^ [X: nat]: X) @ z), which normalizes to v's vec @ z.
    path = tmp_path / "beta.p"
    path.write_text("thf(nat_type, type, nat: $tType).\nthf(z_type, type, z: nat).\n"
                    "thf(vec_type, type, vec: nat > $tType).\nthf(v_type, type, v: vec @ z).\n"
                    "thf(p_type, type, p: (vec @ ((^ [X: nat]: X) @ z)) > $o).\n"
                    "thf(a, axiom, p @ v).\n", encoding="utf-8")
    assert run(["check", "--deep", str(path)]) == EXIT_OK
    assert capsys.readouterr() == ("obligations: 0 residual, 0 discharged\n", "")


# -- diagnostics ------------------------------------------------------------------


def _problem(*decls) -> Problem:
    return Problem(theory=Theory(tuple(decls)))


def test_type_arity_error():
    vec = TypeDecl(Name("vec", NameKind.TYPE),
                   ((Name("N", NameKind.VAR), nat()),), "vec_type")
    natd = TypeDecl(Name("nat", NameKind.TYPE), (), "nat_type")
    bad = ConstDecl(Name("c", NameKind.CONST),
                    BaseApp(Name("vec", NameKind.TYPE)), "c_type")
    report = check_problem(_problem(natd, vec, bad))
    assert not report.ok
    assert any("expects 1 argument, got 0" in d.message for d in report.diagnostics)


def test_shape_mismatch_is_hard_error():
    natd = TypeDecl(Name("nat", NameKind.TYPE), (), "nat_type")
    zero = ConstDecl(Name("zero", NameKind.CONST), nat(), "zero_type")
    f = ConstDecl(Name("f", NameKind.CONST),
                  BaseApp(Name("b", NameKind.TYPE)), "f_type")
    report = check_problem(_problem(natd, zero, f))
    assert not report.ok


def test_diagnostics_do_not_stop_later_formulae():
    natd = TypeDecl(Name("nat", NameKind.TYPE), (), "nat_type")
    zero = ConstDecl(Name("zero", NameKind.CONST), nat(), "zero_type")
    bad = ConstDecl(Name("c", NameKind.CONST),
                    BaseApp(Name("missing", NameKind.TYPE)), "c_type")
    good_ax_body = Eq(const("zero"), const("zero"), nat())
    ax = Axiom("later", good_ax_body, role="axiom")
    report = check_problem(_problem(natd, zero, bad, ax))
    assert len(report.diagnostics) == 1


def test_declarations_see_only_earlier_ones_and_the_first_wins():
    natd = TypeDecl(Name("nat", NameKind.TYPE), (), "nat_type")
    zero = ConstDecl(Name("zero", NameKind.CONST), nat(), "zero_type")
    vec = Name("vec", NameKind.TYPE)
    vec1 = TypeDecl(vec, ((Name("N", NameKind.VAR), nat()),), "vec_type")
    vec0 = TypeDecl(vec, (), "vec_again")
    c = ConstDecl(Name("c", NameKind.CONST), BaseApp(vec, (const("zero"),)), "c_type")
    c_again = ConstDecl(Name("c", NameKind.CONST), nat(), "c_again")
    uses_c = Axiom("uses_c", Eq(const("c"), const("c"), BaseApp(vec, (const("zero"),))))
    assert check_problem(_problem(natd, zero, vec1, vec0, c, c_again, uses_c)).ok
    early = ConstDecl(Name("early", NameKind.CONST), BaseApp(Name("late", NameKind.TYPE)), "early")
    late = TypeDecl(Name("late", NameKind.TYPE), (), "late_type")
    report = check_problem(_problem(early, late))
    assert [d.message for d in report.diagnostics] == ["unknown type symbol 'late'"]


# -- export ------------------------------------------------------------------------


def test_obligation_problem_is_self_contained(corpus_dir):
    problem = parse_file(str(corpus_dir / "list_append.p"))
    report = check_problem(problem)
    sub = obligation_problem(problem, report.obligations[0])
    assert len(sub.theory.decls) == 12
    assert sub.conjecture_name == "ob2"
    sub_report = check_problem(sub)
    assert sub_report.ok


def test_export_writes_numbered_files(corpus_dir, tmp_path):
    problem = parse_file(str(corpus_dir / "list_append.p"))
    report = check_problem(problem)
    paths = export_obligations(problem, report.obligations, str(tmp_path))
    assert [p.split("/")[-1] for p in paths] == ["list_append__ob1.p"]
    text = (tmp_path / "list_append__ob1.p").read_text()
    assert text.startswith("% ob2:")
    reparsed = parse_file(str(tmp_path / "list_append__ob1.p"))
    assert isinstance(reparsed, Problem)
    assert reparsed.conjecture is not None


# -- normalization budget during lookup --------------------------------------------
#
# The axiom `big` normalizes past the step budget (each redex doubles its
# argument).  Lookup fails on it only where a scan of the assumptions in order
# would reach it: when no earlier assumption discharges the obligation.

BIG = "$true"
for _ in range(14):
    BIG = f"((^ [P: $o]: (P & P)) @ {BIG})"

BUDGET_PRELUDE = """\
thf(nat_type, type, nat: $tType).
thf(zero_type, type, zero: nat).
thf(vec_type, type, vec: nat > $tType).
thf(f_type, type, f: !> [N: nat]: (vec @ N)).
"""
BIG_AXIOM = f"thf(big, axiom, {BIG}).\n"
LATER = "thf(later, axiom, ! [N: nat]: ((f @ N) = (f @ zero))).\n"
LEMMA = "thf(lem, axiom, ! [N: nat]: (N = zero)).\n"
BIG_PREMISE = f"thf(later, axiom, ! [N: nat]: ({BIG} => ((f @ N) = (f @ zero)))).\n"

BUDGET_FILES = {
    "budget_late": BUDGET_PRELUDE + BIG_AXIOM + LATER,
    "budget_none": BUDGET_PRELUDE + BIG_AXIOM,
    "budget_lemma": BUDGET_PRELUDE + LEMMA + BIG_AXIOM + LATER,
    "budget_local": BUDGET_PRELUDE + BIG_PREMISE,
}


def _check_deep(tmp_path, capsys, name: str):
    path = tmp_path / f"{name}.p"
    path.write_text(BUDGET_FILES[name], encoding="utf-8")
    code = run(["check", "--deep", "--verbose", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, str(path)


def test_budget_exceeded_by_axiom_before_a_later_obligation(tmp_path, capsys):
    code, out, err, path = _check_deep(tmp_path, capsys, "budget_late")
    assert code == EXIT_CHECK
    assert out == ""
    assert err == f"{path}:6:40: error: normalization budget exceeded\n"


def test_budget_axiom_without_obligations_passes(tmp_path, capsys):
    code, out, err, _ = _check_deep(tmp_path, capsys, "budget_none")
    assert code == EXIT_OK
    assert out == "obligations: 0 residual, 0 discharged\n"
    assert err == ""


def test_budget_exceeded_by_local_assumption(tmp_path, capsys):
    code, out, err, path = _check_deep(tmp_path, capsys, "budget_local")
    assert code == EXIT_CHECK
    assert err == f"{path}:5:400: error: normalization budget exceeded\n"


def test_budget_axiom_after_the_discharging_lemma_is_not_reached(tmp_path, capsys):
    code, out, err, _ = _check_deep(tmp_path, capsys, "budget_lemma")
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("ob1 [discharged by lem]:")
    assert out.splitlines()[-1] == "obligations: 0 residual, 1 discharged"
    assert err == ""


# -- which assumption discharges an obligation -------------------------------------
#
# The first assumption in context order wins: the earliest of alpha-equal
# axioms, the earlier of an axiom matching the closed form and one matching the
# open goal, and any axiom before a local assumption.

PRIORITY = """\
thf(nat_type, type, nat: $tType).
thf(zero_type, type, zero: nat).
thf(one_type, type, one: nat).
thf(vec_type, type, vec: nat > $tType).
thf(f_type, type, f: !> [N: nat]: (vec @ N)).
thf(q_type, type, q: $o).
thf(premised, axiom, q => (one = zero)).
thf(first, axiom, ! [M: nat]: (M = zero)).
thf(second, axiom, ! [K: nat]: (K = zero)).
thf(ground, axiom, one = zero).
thf(ground_again, axiom, one = zero).
thf(use_closed, axiom, ! [N: nat]: ((f @ N) = (f @ zero))).
thf(use_ground, axiom, (f @ one) = (f @ zero)).
thf(use_local, axiom, ! [N: nat]: ((N = one) => ((f @ N) = (f @ one)))).
thf(taut, axiom, ! [X: nat]: ((X = one) => (X = one))).
thf(use_taut, axiom, ! [N: nat]: ((N = one) => ((f @ N) = (f @ one)))).
thf(use_premise, axiom, q => ((f @ one) = (f @ zero))).
thf(use_none, axiom, ! [N: nat]: ((f @ N) = (f @ one))).
"""


def test_first_matching_assumption_discharges():
    report = check_problem(parse_problem(PRIORITY, "priority.p"))
    assert report.ok
    assert [(ob.label, ob.discharged_by) for ob in report.discharged] == [
        ("ob1", "first"), ("ob2", "ground"), ("ob3", "local assumption"),
        ("ob4", "taut"), ("ob5", "premised")]
    assert [ob.label for ob in report.obligations] == ["ob6"]


# -- discharge by key against the linear scan -------------------------------------
#
# The linear scan below is the lookup that the key index replaced, kept as an
# oracle: check_problem must give the same report with either.  It scans the
# axioms declared so far, then the local context.

def oracle_lookup(problem: Problem):
    def lookup(self, ctx: Context, goal, closed, span) -> str | None:
        """Discharge by assumption: open or closed form, up to normalization."""
        goal_n = self._normalize(goal, span)
        closed_n = self._normalize(closed, span)
        if isinstance(goal_n, Eq) and alpha_equal(goal_n.left, goal_n.right):
            return "reflexivity"
        axioms = tuple(Assumption(d.formula, d.label)
                       for d in problem.theory.decls[:self._theory_prefix]
                       if isinstance(d, Axiom))
        for entry in axioms + ctx.entries:
            if not isinstance(entry, Assumption):
                continue
            form_n = self._normalize(entry.formula, span)
            if alpha_equal(form_n, goal_n) or alpha_equal(form_n, closed_n):
                return entry.label or "local assumption"
        return None

    return lookup


def _differential_inputs() -> list:
    problems = [pytest.param(parse_file(str(path)), id=path.name)
                for path in sorted((REPO / "corpus").glob("*.p"))]
    problems += [pytest.param(gen_problem(seed), id=f"gen_problem_{seed}") for seed in range(40)]
    problems += [pytest.param(gen_formula_problem(seed), id=f"gen_formula_problem_{seed}")
                 for seed in range(40)]
    for name in ("axioms", "terms", "discharge"):
        text, expected = generate.family(name, 1, 0.3)
        problems.append(pytest.param(parse_problem(text, f"{expected.path_stem}.p"),
                                     id=expected.path_stem))
    problems += [pytest.param(parse_problem(text, f"{name}.p"), id=name)
                 for name, text in {**BUDGET_FILES, "priority": PRIORITY}.items()]
    return problems


def _same_obligations(got: list, want: list) -> None:
    assert [ob.label for ob in got] == [ob.label for ob in want]
    assert [ob.discharged_by for ob in got] == [ob.discharged_by for ob in want]
    for a, b in zip(got, want):
        assert alpha_equal(a.formula, b.formula)


@pytest.mark.parametrize("problem", _differential_inputs())
def test_keyed_lookup_matches_the_linear_scan(monkeypatch, problem):
    assert isinstance(problem, Problem)
    report = check_problem(problem)
    with monkeypatch.context() as patch:
        patch.setattr(DeepChecker, "_lookup", oracle_lookup(problem))
        oracle = check_problem(problem)
    _same_obligations(report.obligations, oracle.obligations)
    _same_obligations(report.discharged, oracle.discharged)
    assert report.diagnostics == oracle.diagnostics


def test_differential_inputs_reach_every_outcome():
    # The differential test above is only as good as its inputs: they must
    # discharge by an axiom and by a local assumption, leave residual
    # obligations, and fail on the budget.  (No input reaches reflexivity: the
    # checker only emits equations whose normal forms differ.)
    outcomes: set = set()
    for param in _differential_inputs():
        [problem] = param.values
        report = check_problem(problem)
        outcomes |= {"residual"} if report.obligations else set()
        outcomes |= {"budget" for d in report.diagnostics if "budget" in d.message}
        for ob in report.discharged:
            outcomes.add(ob.discharged_by if ob.discharged_by in (
                "reflexivity", "local assumption") else "axiom")
    assert outcomes >= {"residual", "budget", "axiom", "local assumption"}


# -- cost -------------------------------------------------------------------------


def test_normalizations_grow_linearly_with_the_axioms(monkeypatch):
    # Deterministic, unlike a timing: count the normalizations the deep check
    # makes when the number of axioms doubles from 50 to 100, and the entries
    # of the contexts it builds, which hold no axioms.
    calls = [0]
    entries = [0]
    normalize = deep.beta_eta_normalize

    def counting(*args, **kwargs):
        calls[0] += 1
        return normalize(*args, **kwargs)

    def counting_entries(push):
        def pushed(*args, **kwargs):
            ctx = push(*args, **kwargs)
            entries[0] += len(ctx.entries)
            return ctx
        return pushed

    monkeypatch.setattr(deep, "beta_eta_normalize", counting)
    for method in ("push_var", "push_assumption"):
        monkeypatch.setattr(Context, method, counting_entries(getattr(Context, method)))
    counts, entry_counts = [], []
    for scale in (0.5, 1.0):
        text, expected = generate.family("axioms", 1, scale)
        problem = parse_problem(text, "axioms.p")
        calls[0] = entries[0] = 0
        report = check_problem(problem)
        assert [ob.label for ob in report.obligations] == list(expected.residual)
        counts.append(calls[0])
        entry_counts.append(entries[0])
    assert counts[1] <= 2.3 * counts[0], counts
    assert 0 < entry_counts[1] <= 2.3 * entry_counts[0], entry_counts


@pytest.mark.parametrize("problem", _differential_inputs())
def test_obligation_contexts_hold_no_axioms(problem):
    # The axioms live in the checker's index; an obligation's context is what
    # its formula binds and assumes.
    report = check_problem(problem)
    for ob in report.obligations + report.discharged:
        assert not [e for e in ob.context.entries
                    if isinstance(e, Assumption) and e.label is not None], ob.label


@pytest.mark.parametrize("family", ["axioms", "terms"])
def test_check_deep_verbose_at_scale_4_gives_the_generators_answers(family, tmp_path, capsys):
    # Scale 4 reaches deeper sharing of substituted index terms than scale 1,
    # where the benchmark checks the same answers.
    text, expected = generate.family(family, 1, 4.0)
    path = tmp_path / f"{expected.path_stem}.p"
    path.write_text(text, encoding="utf-8")
    assert run(["check", "--deep", "--verbose", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    residual = [m.group(1) for m in map(re.compile(r"(ob\d+) \[residual\]").match, lines) if m]
    discharged = {m.group(1): m.group(2) for m in
                  map(re.compile(r"(ob\d+) \[discharged by (.+?)\]:").match, lines) if m}
    assert captured.err == ""
    assert residual == list(expected.residual)
    assert discharged == expected.discharged_by
    assert lines[-1] == expected.check_summary()
    if family == "axioms":  # the summary ends the plain output too; terms costs 2 s more
        assert run(["check", "--deep", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == expected.check_summary()


def test_alpha_equal_types_are_equal_without_normalizing(tmp_path, capsys):
    # c's type has an argument whose normalization exceeds the budget, but
    # both sides of `c = c` have that same type, so nothing is normalized.
    path = tmp_path / "same_type.p"
    path.write_text("""\
thf(nat_type, type, nat: $tType).
thf(vec_type, type, vec: nat > $tType).
thf(g_type, type, g: $o > nat).
""" + f"thf(c_type, type, c: vec @ (g @ {BIG})).\nthf(a, axiom, c = c).\n", encoding="utf-8")
    assert run(["check", "--deep", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "obligations: 0 residual, 0 discharged\n"


# -- the type of an applied term is normalized only to report it --------------------

APPLIED_PRELUDE = BUDGET_PRELUDE + "thf(g_type, type, g: $o > nat).\n"


@pytest.mark.parametrize("text, expected", [
    # A non-function type is shown in normal form, and normalizing it for the
    # message can still run out of budget, at the application.
    ("thf(c_type, type, c: vec @ ((^ [X: nat]: X) @ zero)).\nthf(a, axiom, (c @ zero) = c).\n",
     ["p.p:7:18: error: applied term has non-function type vec @ zero"]),
    (f"thf(c_type, type, c: vec @ (g @ {BIG})).\nthf(a, axiom, (c @ zero) = c).\n",
     ["p.p:7:18: error: normalization budget exceeded"]),
    # A function type is not normalized: an argument of the same type is
    # accepted, and one of another type fails on the budget at the argument.
    (f"thf(h_type, type, h: (vec @ (g @ {BIG})) > $o).\n"
     f"thf(c_type, type, c: vec @ (g @ {BIG})).\nthf(a, axiom, h @ c).\n", []),
    (f"thf(h_type, type, h: (vec @ (g @ {BIG})) > $o).\nthf(a, axiom, h @ (f @ zero)).\n",
     ["p.p:7:22: error: normalization budget exceeded"]),
], ids=["non_function", "non_function_budget", "same_argument", "other_argument"])
def test_applied_type_is_normalized_only_for_the_diagnostic(text, expected):
    # check_problem without the shallow pass, which refuses `c @ zero` first.
    report = check_problem(parse_problem(APPLIED_PRELUDE + text, "p.p"))
    assert [d.format() for d in report.diagnostics] == expected
    assert report.obligations == []


# -- polymorphic problems -------------------------------------------------------------


@pytest.mark.parametrize("name", ["neg_poly_const.p", "neg_poly_type.p"])
def test_polymorphic_problem_is_refused_as_by_the_shallow_check(negative_dir, name):
    # The CLI's shallow pass refuses these first; check_problem refuses them
    # on its own, with the same located diagnostic.
    problem = parse_file(str(negative_dir / name))
    assert isinstance(problem, Problem) and problem.polymorphic
    report = check_problem(problem)
    assert report.diagnostics == check_shallow(problem)
    assert [d.span is not None for d in report.diagnostics] == [True]
    assert report.obligations == [] and report.discharged == []


@pytest.mark.parametrize("decl", [
    ConstDecl(Name("c", NameKind.CONST), BaseApp(Name("A", NameKind.VAR)), "c_type"),
    TypeDecl(Name("t", NameKind.TYPE), ((Name("A", NameKind.VAR), TYPE_KIND),), "t_type"),
], ids=["type_variable", "kind_in_telescope"])
def test_polymorphism_built_by_hand_is_refused_by_both_checkers(decl):
    # The elaborator flags every parsed polymorphic problem; one built by hand,
    # with no flag, fails on the type symbol neither checker knows.
    problem = Problem(theory=Theory((decl,)))
    assert problem.polymorphic is None
    assert check_shallow(problem)
    assert check_problem(problem).diagnostics


# -- type arguments compared one by one ------------------------------------------------

INDEXED_PRELUDE = """\
thf(nat_type, type, nat: $tType).
thf(zero_type, type, zero: nat).
thf(one_type, type, one: nat).
thf(mat_type, type, mat: nat > nat > $tType).
thf(vec_type, type, vec: nat > $tType).
"""


def test_two_index_type_with_one_matching_index_gives_one_obligation():
    problem = parse_problem(INDEXED_PRELUDE + (
        "thf(c_type, type, c: mat @ zero @ zero).\n"
        "thf(d_type, type, d: mat @ zero @ one).\n"
        "thf(a, axiom, c = d).\n"), "p.p")
    report = check_problem(problem)
    assert report.diagnostics == [] and report.discharged == []
    [ob] = report.obligations
    assert alpha_equal(ob.goal, Eq(const("zero"), const("one"), nat()))


def test_beta_redex_in_an_axiom_discharges_through_its_normal_form():
    problem = parse_problem(INDEXED_PRELUDE + (
        "thf(c_type, type, c: vec @ zero).\n"
        "thf(h_type, type, h: (vec @ one) > $o).\n"
        "thf(ax, axiom, ((^ [X: nat]: X) @ zero) = one).\n"
        "thf(use, axiom, h @ c).\n"), "p.p")
    report = check_problem(problem)
    assert report.diagnostics == [] and report.obligations == []
    [ob] = report.discharged
    assert ob.discharged_by == "ax"
    assert alpha_equal(ob.goal, Eq(const("zero"), const("one"), nat()))


# -- type_equal's comparison by head ----------------------------------------------


def _by_head(a, b) -> bool:
    """The pairs that type_equal answers by head, without alpha_equal."""
    return (a is not b and isinstance(a, BaseApp) and isinstance(b, BaseApp)
            and not a.args and not b.args and a.head == b.head)


def test_every_pair_compared_by_head_is_alpha_equal(monkeypatch, corpus_dir):
    pairs = []
    type_equal = DeepChecker.type_equal

    def recording(self, ctx, a, b, *rest):
        if _by_head(a, b):
            pairs.append((a, b))
        return type_equal(self, ctx, a, b, *rest)

    monkeypatch.setattr(DeepChecker, "type_equal", recording)
    problems = [parse_file(str(path)) for path in sorted(corpus_dir.glob("*.p"))]
    problems += [parse_problem(generate.family(name, 1)[0])
                 for name in ("axioms", "terms", "discharge")]
    for problem in problems:
        check_problem(problem)
    assert len(pairs) > 4_000
    assert all(alpha_equal(a, b) for a, b in pairs)


@pytest.mark.parametrize("other", [Name("A", NameKind.VAR), Name("A", NameKind.TYPE),
                                   Name("B", NameKind.VAR)], ids=["same", "kind", "name"])
def test_a_type_variable_head_is_compared_as_alpha_equal_compares_it(other):
    a, b = BaseApp(Name("A", NameKind.VAR)), BaseApp(other)
    checker = DeepChecker()
    if alpha_equal(a, b):
        assert other == a.head
        checker.type_equal(Context(), a, b, None, "origin")
    else:
        with pytest.raises(DiagnosticError, match="types differ: A vs "):
            checker.type_equal(Context(), a, b, None, "origin")
    assert not checker.obligations
