"""PER erasure: relation declarations, guards, and the TH0 image."""

import pytest
from hypothesis import given, settings, strategies as st

import genutil
from dtf.cli import EXIT_OK, run
from dtf.core import (
    BOOL,
    And,
    Axiom,
    BaseApp,
    Choice,
    Const,
    ConstDecl,
    Context,
    Eq,
    Forall,
    Name,
    NameKind,
    Theory,
    TypeDecl,
    Var,
)
from dtf.deep import Obligation, check_problem, obligation_problem
from dtf.erasure import (
    Eraser,
    ErasureError,
    TH0Printer,
    erase_problem,
    erase_type,
    erased_image,
)
from dtf.printer import check_simply_typed, print_th0
from dtf.shallow import check_shallow, skeletonize
from dtf.syntax import Problem, parse_file, parse_problem


def _erased_example(corpus_dir, assume=True):
    problem = parse_file(str(corpus_dir / "list_append.p"))
    report = check_problem(problem)
    obs = report.obligations if assume else ()
    return problem, report, erase_problem(problem, assume_obligations=obs)


# -- the simple-type image --------------------------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_erase_type_agrees_with_skeletonize(seed):
    ty = genutil.gen_dependent_type(seed)
    assert erase_type(ty) == skeletonize(ty)


def test_erased_image_drops_term_arguments():
    vec = BaseApp(Name("vec", NameKind.TYPE),
                  (Const(Name("zero", NameKind.CONST)),))
    image = erased_image(vec)
    assert isinstance(image, BaseApp)
    assert image.args == ()


# -- declaration rows ---------------------------------------------------------------


def test_worked_example_erased_label_inventory(corpus_dir):
    _, _, erased = _erased_example(corpus_dir)
    labels = {decl.label for decl in erased.theory.decls}
    for ty in ("elem", "nat", "list"):
        assert f"{ty}_type" in labels
        assert f"per_{ty}_type" in labels
        assert f"per_{ty}_functional" in labels
    for c in ("zero", "suc", "plus", "nil", "cons", "app"):
        assert f"{c}_type" in labels
        assert f"{c}_per" in labels
    assert {"ax1", "ax2", "plus_assoc", "ob2_assumed"} <= labels
    # 3 types x 3 rows + 6 constants x 2 rows + 3 axioms + 1 assumed obligation
    assert len(erased.theory.decls) == 3 * 3 + 6 * 2 + 3 + 1


def test_provenance_covers_every_declaration(corpus_dir):
    _, _, erased = _erased_example(corpus_dir)
    labels = []
    for decl in erased.theory.decls:
        labels.append(decl.label)
    assert all(labels)
    assert len(set(labels)) == len(labels)


def test_type_decl_collapses_to_plain_type(corpus_dir):
    _, _, erased = _erased_example(corpus_dir)
    for decl in erased.theory.decls:
        if isinstance(decl, TypeDecl):
            assert decl.telescope == ()


def test_per_name_collision_gets_underscore():
    problem = parse_problem(
        "thf(b_type, type, b: $tType).\n"
        "thf(per_b_type, type, per_b: b > b > $o).\n")
    assert isinstance(problem, Problem)
    eraser = Eraser(problem.theory)
    assert eraser.per_names["b"].text == "per_b_"
    erased = erase_problem(problem)
    labels = {decl.label for decl in erased.theory.decls}
    assert "per_b__type" in labels
    assert "per_b__functional" in labels


# -- term erasure ----------------------------------------------------------------


def test_bool_equation_stays_equation():
    problem = parse_problem(
        "thf(p_type, type, p: $o).\n"
        "thf(same, axiom, p = p).\n")
    assert isinstance(problem, Problem)
    erased = erase_problem(problem)
    ax = [d for d in erased.theory.decls if isinstance(d, Axiom)
          and d.label == "same"][0]
    assert isinstance(ax.formula, Eq)
    assert ax.formula.at == BOOL


def test_unannotated_equation_is_rejected():
    nat = BaseApp(Name("nat", NameKind.TYPE))
    theory = (
        TypeDecl(Name("nat", NameKind.TYPE), (), "nat_type"),
        ConstDecl(Name("zero", NameKind.CONST), nat, "zero_type"),
        Axiom("bare", Eq(Const(Name("zero", NameKind.CONST)),
                         Const(Name("zero", NameKind.CONST)), None)),
    )
    problem = Problem(theory=Theory(theory))
    with pytest.raises(ErasureError, match="lacks a type annotation"):
        erase_problem(problem)


def test_choice_body_gets_relatedness_guard(corpus_dir):
    problem = parse_file(str(corpus_dir / "choice.p"))
    report = check_problem(problem)
    erased = erase_problem(problem, assume_obligations=report.obligations)
    conjecture = erased.conjecture
    found = []

    def find(t):
        if isinstance(t, Choice):
            found.append(t)
        for attr in ("fun", "arg", "left", "right", "body"):
            child = getattr(t, attr, None)
            if child is not None and not isinstance(child, (str, type(None))):
                find(child)

    find(conjecture)
    assert len(found) == 1
    assert isinstance(found[0].body, And)


def test_forall_blocks_are_guarded(corpus_dir):
    problem, _, erased = _erased_example(corpus_dir)
    per_heads = {n.text for n in Eraser(problem.theory).per_names.values()}
    for decl in erased.theory.decls:
        if isinstance(decl, Axiom):
            assert genutil.forall_guard_violations(decl.formula, per_heads) == []
    assert genutil.forall_guard_violations(erased.conjecture, per_heads) == []


def test_guard_scan_flags_missing_guard():
    nat = BaseApp(Name("nat", NameKind.TYPE))
    x = Name("X", NameKind.VAR)
    bare = Forall(x, nat, Eq(Var(x), Var(x), BOOL))
    assert genutil.forall_guard_violations(bare, {"per_nat"}) == ["X"]


# -- the erased problem as TH0 -------------------------------------------------------


def test_erased_problem_is_simply_typed(corpus_dir):
    _, _, erased = _erased_example(corpus_dir)
    check_simply_typed(erased)


def test_erased_problem_passes_shallow(corpus_dir):
    _, _, erased = _erased_example(corpus_dir)
    assert check_shallow(erased) == []


def test_erased_problem_reparses(corpus_dir):
    _, _, erased = _erased_example(corpus_dir)
    text = print_th0(erased)
    reparsed = parse_problem(text)
    assert isinstance(reparsed, Problem)
    assert check_shallow(reparsed) == []
    assert len(reparsed.theory.decls) == len(erased.theory.decls)


def test_erased_problem_has_no_dependencies_left(corpus_dir):
    _, _, erased = _erased_example(corpus_dir)
    report = check_problem(erased)
    assert report.ok
    assert report.obligations == []


def test_assumed_obligations_become_axioms(corpus_dir):
    problem, report, erased = _erased_example(corpus_dir)
    assumed = [d for d in erased.theory.decls
               if isinstance(d, Axiom) and d.label == "ob2_assumed"]
    assert len(assumed) == 1
    without = erase_problem(problem)
    assert all(d.label != "ob2_assumed" for d in without.theory.decls)


def test_generated_theories_erase_cleanly():
    for seed in range(20):
        problem = genutil.gen_problem(seed)
        report = check_problem(problem)
        assert report.ok and report.obligations == [], seed
        erased = erase_problem(problem)
        assert check_shallow(erased) == [], seed
        check_simply_typed(erased)
        source_types = [d for d in problem.theory.decls if isinstance(d, TypeDecl)]
        per_decls = [d for d in erased.theory.decls
                     if isinstance(d, ConstDecl) and d.label.endswith("_type")
                     and d.label.startswith("per_")]
        functional = [d for d in erased.theory.decls
                      if isinstance(d, Axiom) and d.label.endswith("_functional")]
        assert len(per_decls) == len(source_types), seed
        assert len(functional) == len(source_types), seed


# -- one run's TH0 tasks --------------------------------------------------------------


def _with_per_collisions(problem, spots) -> Problem:
    """Declare names that the PERs of earlier types would take, at the given spots."""
    decls = list(problem.theory.decls)
    for spot in spots:
        k = spot % (len(decls) + 1)
        types = [d.name.text for d in decls[:k] if isinstance(d, TypeDecl)]
        taken = {d.name.text for d in decls if isinstance(d, (TypeDecl, ConstDecl))}
        name = f"per_{types[spot % len(types)]}" + "_" * (spot % 3) if types else "per_"
        if name in taken:
            continue
        if spot % 2:
            decls.insert(k, TypeDecl(Name(name, NameKind.TYPE), (), f"{name}_type"))
        else:
            decls.insert(k, ConstDecl(Name(name, NameKind.CONST), BOOL, f"{name}_type"))
    return Problem(theory=Theory(tuple(decls)), goal=problem.goal)


def _obligations(problem) -> list:
    """The checker's obligations, plus each axiom and the conjecture posed as an
    obligation at every prefix that can see its symbols."""
    report = check_problem(problem)
    assert report.ok
    decls = problem.theory.decls
    posed = [(d.formula, j + 1) for j, d in enumerate(decls) if isinstance(d, Axiom)]
    if problem.conjecture is not None:
        posed.append((problem.conjecture, len(decls)))
    obligations = report.obligations + report.discharged
    for formula, first in posed:
        for prefix in range(first, len(decls) + 1):
            obligations.append(Obligation(
                label=f"ob{len(obligations) + 1}", context=Context(), goal=formula,
                origin="posed", formula=formula, theory_prefix=prefix))
    return obligations


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.booleans(),
       st.lists(st.integers(0, 60), max_size=4), st.randoms(use_true_random=False))
def test_th0_printer_matches_erasing_each_task(seed, conjecture, spots, rng):
    generated = (genutil.gen_formula_problem if conjecture else genutil.gen_problem)(seed)
    problem = _with_per_collisions(generated, spots)
    obligations = _obligations(problem)
    rng.shuffle(obligations)   # export runs residual, then discharged obligations
    printer = TH0Printer(problem)
    for ob in obligations:
        sub = obligation_problem(problem, ob)
        assert printer.print(sub) == print_th0(erase_problem(sub))
    for assumed in ((), tuple(obligations)):
        expected = print_th0(erase_problem(problem, assume_obligations=assumed))
        assert printer.print(problem, assumed) == expected


def test_th0_printer_renames_a_per_where_a_later_name_takes_it(fixtures_dir):
    problem = parse_file(str(fixtures_dir / "per_nat_collision.p"))
    report = check_problem(problem)
    printer = TH0Printer(problem)
    pers = {}
    for ob in report.obligations:
        text = printer.print(obligation_problem(problem, ob))
        assert text == print_th0(erase_problem(obligation_problem(problem, ob)))
        pers[ob.label] = "per_nat_ @" in text, "per_nat @" in text
    assert pers["ob1"] == pers["ob2"] == (False, True)
    assert all(pers[f"ob{k}"] == (True, True) for k in range(3, 9))


# -- fresh names in the PER of a dependent product ---------------------------------------
#
# `Eraser.per_of_type` relates two functions by quantifying over two copies of
# the argument, both named after the product's binder; the guard names them
# apart from every variable already free there.

PER_RENAMING = {
    # The quantified variable takes the name of the invented arrow binder.
    "arrow_binder": (
        "thf(a_type, type, a: $tType).\n"
        "thf(c_decl, type, c: a).\n"
        "thf(ax, axiom, ! [X1_: a > a]: ((X1_ @ c) = c)).\n",
        "thf(a_type, type, a: $tType).\n"
        "thf(per_a_type, type, per_a: a > a > $o).\n"
        "thf(per_a_functional, axiom, ! [U: a, V: a]: (((per_a @ U @ V) => (U = V)))).\n"
        "thf(c_decl, type, c: a).\n"
        "thf(c_per, axiom, per_a @ c @ c).\n"
        "thf(ax, axiom,\n"
        "    ! [X1_: (a > a)]: (((! [X1_0: a, X1_1: a]: (((per_a @ X1_0 @ X1_1) => "
        "(per_a @ (X1_ @ X1_0) @ (X1_ @ X1_1))))) => (per_a @ (X1_ @ c) @ c)))).\n"),
    # The outer right copy of N is N0, the inner binder; the inner copies are
    # N1 and N00, and the dependent codomain follows the left one, N1.
    "inner_binder": (
        "thf(nat_type, type, nat: $tType).\n"
        "thf(vec_type, type, vec: nat > $tType).\n"
        "thf(c_decl, type, c: !> [N: nat, N0: nat]: ((vec @ N) > (vec @ N0) > $o)).\n",
        "thf(nat_type, type, nat: $tType).\n"
        "thf(per_nat_type, type, per_nat: nat > nat > $o).\n"
        "thf(per_nat_functional, axiom,\n"
        "    ! [U: nat, V: nat]: (((per_nat @ U @ V) => (U = V)))).\n"
        "thf(vec_type, type, vec: $tType).\n"
        "thf(per_vec_type, type, per_vec: nat > vec > vec > $o).\n"
        "thf(per_vec_functional, axiom,\n"
        "    ! [X1_: nat, U: vec, V: vec]: (((per_vec @ X1_ @ U @ V) => (U = V)))).\n"
        "thf(c_decl, type, c: nat > nat > vec > vec > $o).\n"
        "thf(c_per, axiom,\n"
        "    ! [N: nat, N0: nat]: (((per_nat @ N @ N0) => (! [N1: nat, N00: nat]: "
        "(((per_nat @ N1 @ N00) => (! [X1_: vec, X1_0: vec]: (((per_vec @ N @ X1_ @ X1_0) => "
        "(! [X2_: vec, X2_0: vec]: (((per_vec @ N1 @ X2_ @ X2_0) => "
        "((c @ N @ N1 @ X1_ @ X2_) = (c @ N0 @ N00 @ X1_0 @ X2_0)))))))))))))).\n"),
}


@pytest.mark.parametrize("text, expected", PER_RENAMING.values(), ids=PER_RENAMING.keys())
def test_per_of_a_product_renames_clashing_binders(tmp_path, capsys, text, expected):
    path = tmp_path / "per.p"
    path.write_text(text, encoding="utf-8")
    assert run(["translate", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == expected
    reparsed = parse_problem(out)
    assert isinstance(reparsed, Problem)
    assert check_shallow(reparsed) == []
    check_simply_typed(reparsed)


def test_translate_of_a_lambda_reparses_simply_typed(tmp_path, capsys):
    path = tmp_path / "lam.p"
    path.write_text(
        "thf(nat_type, type, nat: $tType).\n"
        "thf(vec_type, type, vec: nat > $tType).\n"
        "thf(zero_type, type, zero: nat).\n"
        "thf(f_type, type, f: (vec @ zero) > nat).\n"
        "thf(a, axiom, (^ [V: vec @ zero]: (f @ V)) = (^ [W: vec @ zero]: zero)).\n",
        encoding="utf-8")
    assert run(["translate", str(path)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "^ [V: vec]" in text
    reparsed = parse_problem(text)
    assert isinstance(reparsed, Problem)
    assert check_shallow(reparsed) == []
    check_simply_typed(reparsed)  # raises on a dependent type
