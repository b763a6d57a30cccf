"""Acceptance gate: one test per shipped guarantee.

Each test name states the guarantee; the pytest -v line for it is the
pass/fail verdict.  Tolerances (runtime bounds, case counts) are asserted
inside the tests themselves.
"""

import shutil
import time

import pytest

import genutil
from theoryutil import theory_alpha_equal
from dtf.cli import EXIT_OK, run
from dtf.core import (
    Assumption,
    Axiom,
    ConstDecl,
    Exists,
    TypeDecl,
    alpha_equal,
    beta_eta_normalize,
)
from dtf.deep import check_problem
from dtf.erasure import Eraser, erase_problem, erase_type
from dtf.printer import print_problem
from dtf.shallow import check_shallow, skeletonize
from dtf.syntax import Problem, parse_file, parse_problem


# -- 1. round trip -----------------------------------------------------------------


def test_criterion_1_round_trip_all_corpus_files(corpus_dir):
    """parse -> print -> parse is identity up to alpha for every corpus file."""
    start = time.monotonic()
    paths = sorted(corpus_dir.rglob("*.p"))
    assert len(paths) >= 18
    unparseable = []
    for path in paths:
        problem = parse_file(str(path))
        if not isinstance(problem, Problem):
            unparseable.append(path.name)
            continue
        reparsed = parse_problem(print_problem(problem))
        assert isinstance(reparsed, Problem), path.name
        assert theory_alpha_equal(problem.theory, reparsed.theory), path.name
        if problem.conjecture is None:
            assert reparsed.conjecture is None, path.name
        else:
            assert alpha_equal(problem.conjecture, reparsed.conjecture), path.name
    # Only the two designed parse-error mutants may fail to parse at all.
    assert sorted(unparseable) == ["neg_mixed_binder.p", "neg_unknown_symbol.p"]
    assert time.monotonic() - start < 1.0


# -- 2. the worked example ------------------------------------------------------------


def test_criterion_2_worked_example_shape(corpus_dir):
    """The list-append example: 9 type declarations, 3 axioms, 1 conjecture."""
    problem = parse_file(str(corpus_dir / "list_append.p"))
    assert isinstance(problem, Problem)
    counts = problem.role_counts()
    assert counts.get("type") == 9
    assert counts.get("axiom") == 3
    assert counts.get("conjecture") == 1
    assert problem.conjecture is not None
    assert check_shallow(problem) == []


# -- 3. the obligation oracle ----------------------------------------------------------


def test_criterion_3_residual_obligation_matches_oracle(corpus_dir, fixtures_dir):
    """Deep check leaves exactly the hand-derived associativity instance."""
    problem = parse_file(str(corpus_dir / "list_append.p"))
    report = check_problem(problem)
    assert report.ok
    assert len(report.obligations) == 1
    oracle = parse_file(str(fixtures_dir / "list_append_obligation.p"))
    assert isinstance(oracle, Problem) and oracle.conjecture is not None
    assert alpha_equal(
        beta_eta_normalize(report.obligations[0].formula),
        beta_eta_normalize(oracle.conjecture))


# -- 4. erasure template conformance --------------------------------------------------


def test_criterion_4_erasure_template_conformance():
    """On 120 random well-typed theories the erased output follows the template:
    shallow-clean, one relation + one functionality axiom per type symbol,
    and every universal over a base type is guarded."""
    start = time.monotonic()
    cases = 120
    for seed in range(cases):
        problem = genutil.gen_problem(seed)
        assert len(problem.theory.decls) <= 5 + 1, seed
        report = check_problem(problem)
        assert report.ok and not report.obligations, seed

        erased = erase_problem(problem)
        assert check_shallow(erased) == [], seed

        source_types = [d for d in problem.theory.decls if isinstance(d, TypeDecl)]
        per_heads = {n.text for n in Eraser(problem.theory).per_names.values()}
        per_decls = [d for d in erased.theory.decls
                     if isinstance(d, ConstDecl) and d.name.text in per_heads]
        functional = [d for d in erased.theory.decls
                      if isinstance(d, Axiom) and d.label.endswith("_functional")]
        assert len(per_decls) == len(source_types), seed
        assert len(functional) == len(source_types), seed

        for decl in erased.theory.decls:
            if isinstance(decl, Axiom):
                bad = genutil.forall_guard_violations(decl.formula, per_heads)
                assert bad == [], (seed, decl.label, bad)
    assert time.monotonic() - start < 10.0


# -- 5. skeleton agreement ---------------------------------------------------------------


def test_criterion_5_skeletons_agree_on_1000_random_types():
    """The two independent type-flattening implementations always coincide."""
    for seed in range(1000):
        ty = genutil.gen_dependent_type(seed)
        assert erase_type(ty) == skeletonize(ty), seed


# -- 6. connective order sensitivity ------------------------------------------------------


FORWARD = """
thf(ta_type, type, tA: $tType).
thf(tb_type, type, tB: tA > $tType).
thf(a_type, type, a: tA).
thf(b_type, type, b: tA).
thf(f_type, type, f: !> [X: tA]: (tB @ X)).
thf(guarded, axiom, (a = b) => ((f @ a) = (f @ b))).
"""

REVERSED = FORWARD.replace(
    "thf(guarded, axiom, (a = b) => ((f @ a) = (f @ b))).",
    "thf(unguarded, axiom, ((f @ a) = (f @ b)) => (a = b)).")


def test_criterion_6_implication_order_changes_obligation_context():
    """a = b => f a = f b: the index obligation sees the equation as a local
    assumption; with the implication reversed it does not."""
    forward = parse_problem(FORWARD)
    assert isinstance(forward, Problem)
    f_report = check_problem(forward)
    assert f_report.ok
    f_obs = f_report.discharged + f_report.obligations
    assert len(f_obs) == 1
    f_locals = [e for e in f_obs[0].context.entries
                if isinstance(e, Assumption) and e.label is None]
    assert len(f_locals) == 1
    assert alpha_equal(beta_eta_normalize(f_locals[0].formula),
                       beta_eta_normalize(f_obs[0].goal))

    reversed_ = parse_problem(REVERSED)
    assert isinstance(reversed_, Problem)
    r_report = check_problem(reversed_)
    assert r_report.ok
    r_obs = r_report.discharged + r_report.obligations
    assert len(r_obs) == 1
    r_locals = [e for e in r_obs[0].context.entries
                if isinstance(e, Assumption) and e.label is None]
    assert r_locals == []


# -- 7. strong choice --------------------------------------------------------------------


def test_criterion_7_choice_terms_emit_one_existence_obligation(corpus_dir):
    """Each choice term yields exactly one existence obligation; none appear
    without a choice term."""
    problem = parse_file(str(corpus_dir / "choice.p"))
    report = check_problem(problem)
    assert report.ok
    choice_obs = [ob for ob in report.obligations + report.discharged
                  if "choice" in ob.origin]
    assert len(choice_obs) == 1
    assert isinstance(choice_obs[0].goal, Exists)

    for name in ("list_append.p", "hol.p", "vect.p", "dep_impl.p"):
        other = parse_file(str(corpus_dir / name))
        other_report = check_problem(other)
        assert all("choice" not in ob.origin
                   for ob in other_report.obligations + other_report.discharged), name


# -- 8. negative suite -------------------------------------------------------------------


NEGATIVES = {
    "neg_arity_missing.p": (5, 1),
    "neg_arity_extra.p": (5, 1),
    "neg_app_mismatch.p": (4, 1),
    "neg_eq_mismatch.p": (6, 1),
    "neg_head_mismatch.p": (8, 1),
    "neg_not_bool.p": (4, 1),
    "neg_poly_const.p": (2, 1),
    "neg_poly_type.p": (3, 1),
    "neg_unknown_symbol.p": (4, 2),
    "neg_mixed_binder.p": (3, 2),
}


def test_criterion_8_negative_suite_diagnostics_and_exit_codes(negative_dir):
    """All ten mutated problems fail with located diagnostics and the
    documented exit code."""
    assert len(NEGATIVES) == 10
    for name, (line, exit_code) in NEGATIVES.items():
        path = negative_dir / name
        assert run(["check", "--deep", str(path)]) == exit_code, name

        result = parse_file(str(path))
        if isinstance(result, Problem):
            diags = check_shallow(result)
        else:
            diags = result
        assert diags, name
        located = [d for d in diags
                   if d.span is not None and d.span.line == line
                   and (d.path or "").endswith(name)]
        assert located, (name, [(d.span and d.span.line, d.message) for d in diags])


# -- 9. external prover (optional) ---------------------------------------------------------


HOL_PROVERS = (
    ("zipperposition", "zipperposition --timeout 55 {file}"),
    ("leo3", "leo3 {file} -t 55"),
    ("satallax", "satallax -t 55 {file}"),
    ("eprover-ho", "eprover-ho --auto --cpu-limit=55 {file}"),
    ("vampire", "vampire --input_syntax tptp -t 55 {file}"),
)


def test_criterion_9_prover_discharges_worked_example(corpus_dir, capsys):
    """With a sound HOL ATP on PATH, solve proves both the residual obligation
    and the erased conjecture within 60 s."""
    command = next((template for binary, template in HOL_PROVERS
                    if shutil.which(binary)), None)
    if command is None:
        pytest.skip("no HOL ATP on PATH")
    path = str(corpus_dir / "list_append.p")
    code = run(["solve", "--prover", command, "--timeout", "60", path])
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    assert "ob2: Theorem" in out
    assert "list_app_assoc_base: Theorem" in out
    assert f"% SZS status Theorem for {path}" in out
