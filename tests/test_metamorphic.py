"""Metamorphic properties of the pipeline: relations between two runs.

The pins in test_golden.py and test_export.py tell a change that output
moved, not whether the move is wrong.  Each relation here compares one run
of the pipeline with another on a related input, so it holds whatever the
output bytes are:

- print round trip: parse(print_problem(p)) has the deep report and the
  `translate` output of p;
- export closure: every obligation problem, printed and parsed again,
  deep-checks with no diagnostic, and its conjecture adds no obligation;
- prefix stability: re-checking that problem gives, in order, p's
  obligations whose theory prefix is below the obligation's;
- include split: moving the declarations before a random one into an
  included file changes neither the report nor the `translate` output, and
  each declaration keeps the path of its file as typed.
"""

import random
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dtf.core import alpha_key
from dtf.deep import check_problem, obligation_problem
from dtf.erasure import erase_problem
from dtf.printer import decl_line, print_problem, print_th0
from dtf.syntax import Problem, parse_file, parse_problem

from genutil import gen_formula_problem, gen_problem, load_generator

REPO = Path(__file__).resolve().parents[1]
generate = load_generator()

# Scale 0.25 keeps each family to a few dozen obligations; the export
# relations re-check one problem per obligation.
FAMILIES = ("axioms", "terms", "discharge")
FILES = [str(p.relative_to(REPO)) for p in (*sorted((REPO / "corpus").glob("*.p")),
                                             *sorted((REPO / "tests" / "fixtures").glob("*.p")))]


@cache
def _checked(key: str) -> tuple:
    """(problem, report) of a file of FILES or a family of FAMILIES; None for a
    file that does not parse."""
    if key in FAMILIES:
        problem = parse_problem(generate.family(key, 1, 0.25)[0])
    else:
        problem = parse_file(str(REPO / key))
    if not isinstance(problem, Problem):
        return None
    return problem, check_problem(problem)


def _clean_keys() -> list:
    keys = [k for k in (*FILES, *FAMILIES) if _checked(k) and _checked(k)[1].ok]
    assert len(keys) >= 12, keys
    return keys


def _obligation_key(ob) -> tuple:
    return (ob.label, alpha_key(ob.goal), alpha_key(ob.formula), ob.discharged_by, ob.theory_prefix)


def _report_key(report) -> tuple:
    """The deep report up to alpha renaming."""
    return ([d.format() for d in report.diagnostics],
            [_obligation_key(ob) for ob in report.obligations],
            [_obligation_key(ob) for ob in report.discharged])


def _translate(problem, report) -> str:
    """What `dtf translate --assume-obligations` prints for a checked problem."""
    return print_th0(erase_problem(problem, tuple(report.obligations)).problem)


def _reparse(problem) -> Problem:
    text = print_problem(problem)
    reparsed = parse_problem(text)
    assert isinstance(reparsed, Problem), (text, [d.format() for d in reparsed])
    return reparsed


# -- print round trip -------------------------------------------------------------


def _assert_round_trip(problem, report) -> None:
    reparsed = _reparse(problem)
    again = check_problem(reparsed)
    assert _report_key(again) == _report_key(report)
    assert _translate(reparsed, again) == _translate(problem, report)


@pytest.mark.parametrize("key", _clean_keys())
def test_print_round_trip_keeps_report_and_translation(key):
    _assert_round_trip(*_checked(key))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), with_conjecture=st.booleans())
def test_print_round_trip_on_generated_problems(seed, with_conjecture):
    # Printed once first: a telescope binder the type does not use prints as
    # an arrow and reads back under an invented name, which `translate` shows.
    problem = _reparse((gen_formula_problem if with_conjecture else gen_problem)(seed))
    _assert_round_trip(problem, check_problem(problem))


# -- export closure and prefix stability ------------------------------------------


@cache
def _rechecked(key: str) -> list:
    """(obligation, deep report of its printed and re-parsed obligation problem)
    for every obligation of key, residual or discharged."""
    problem, report = _checked(key)
    return [(ob, check_problem(_reparse(obligation_problem(problem, ob))))
            for ob in (*report.obligations, *report.discharged)]


def test_the_inputs_have_obligations_to_export():
    assert sum(len(_rechecked(key)) for key in _clean_keys()) >= 50


@pytest.mark.parametrize("key", _clean_keys())
def test_obligation_problems_check_cleanly_and_add_nothing(key):
    for ob, again in _rechecked(key):
        assert again.ok, (ob.label, [d.format() for d in again.diagnostics])
        # The conjecture's own obligations would sit at the full prefix.
        assert all(o.theory_prefix < ob.theory_prefix
                   for o in (*again.obligations, *again.discharged)), ob.label


@pytest.mark.parametrize("key", _clean_keys())
def test_obligation_problems_reproduce_the_earlier_obligations(key):
    _, report = _checked(key)
    for ob, again in _rechecked(key):
        below = [o for o in report.obligations if o.theory_prefix < ob.theory_prefix]
        assert [_obligation_key(o) for o in again.obligations] == \
            [_obligation_key(o) for o in below], ob.label
        below = [o for o in report.discharged if o.theory_prefix < ob.theory_prefix]
        assert [_obligation_key(o) for o in again.discharged] == \
            [_obligation_key(o) for o in below], ob.label


# -- include split ----------------------------------------------------------------


def _split_input(case: str) -> Problem:
    if case in FAMILIES:
        return _checked(case)[0]
    return _reparse(gen_formula_problem(int(case)))


@pytest.mark.parametrize("case", ["axioms", "discharge", *map(str, range(8))])
def test_include_split_keeps_report_translation_and_paths(case, tmp_path, monkeypatch):
    problem = _split_input(case)
    report = check_problem(problem)
    decls = problem.decls()
    k = random.Random(case).randrange(1, len(decls))
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / "part.ax").write_text(
        "".join(decl_line(d) + "\n" for d in decls[:k]), encoding="utf-8")
    (tmp_path / "d" / "main.p").write_text(
        "include('part.ax').\n" + "".join(decl_line(d) + "\n" for d in decls[k:]), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    split = parse_file("d/main.p")
    assert isinstance(split, Problem), [d.format() for d in split]
    again = check_problem(split)
    assert _report_key(again) == _report_key(report)
    assert _translate(split, again) == _translate(problem, report)
    assert [d.path for d in split.decls()] == ["d/part.ax"] * k + ["d/main.p"] * (len(decls) - k)
