"""Determinism and known answers of the benchmark's generator and tracer.

Run with `PYTHONPATH=src python -m pytest -q perfbench`.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

import generate
import run
from tracing import Tracer, layer_metrics

dtf = pytest.importorskip("dtf")
import dtf.cli  # noqa: E402
from dtf.core import Axiom, term_size  # noqa: E402


def test_same_seed_same_problem():
    assert generate.family("axioms", 7, scale=0.1) == generate.family("axioms", 7, scale=0.1)
    assert generate.family("axioms", 7, scale=0.1)[0] != generate.family("axioms", 8, scale=0.1)[0]


def test_pinned_small_problem():
    text, expected = generate.generate(1, 6, 2, "pin")
    assert expected.main_classes == ("lemma", "residual", "local", "local", "lemma", "residual")
    assert expected.residual == ("ob2", "ob6")
    assert expected.discharged_by == {"ob1": "lem1", "ob3": "local assumption",
                                      "ob4": "local assumption", "ob5": "lem5"}
    assert expected.check_summary() == "obligations: 2 residual, 4 discharged"
    assert text.count("\nthf(") == expected.formulae


@pytest.mark.parametrize("name", sorted(generate.FAMILIES))
def test_class_shares_follow_the_family(name):
    shape = generate.FAMILIES[name]
    _, expected = generate.family(name, 3)
    classes = expected.main_classes
    assert len(classes) == shape["n"]
    assert classes.count("lemma") == int(shape["n"] * shape["lemma"])
    assert classes.count("local") == int(shape["n"] * shape["local"])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(generate.FAMILIES))
def test_known_answers_match_dtf(name, seed):
    text, expected = generate.family(name, seed, scale=0.1)
    problem = dtf.parse_problem(text, "gen.p")
    assert problem.role_counts() == expected.roles
    assert dtf.check_shallow(problem) == []
    report = dtf.check_problem(problem)
    assert report.diagnostics == []
    assert tuple(ob.label for ob in report.obligations) == expected.residual
    assert {ob.label: ob.discharged_by for ob in report.discharged} == expected.discharged_by
    axioms = [d for d in problem.theory.decls if isinstance(d, Axiom)]
    assert len(axioms) == expected.axioms
    size = sum(term_size(a.formula) for a in axioms) + term_size(problem.conjecture)
    assert size == expected.term_size


def test_corpus_answers_match_dtf():
    for path in sorted(run.CORPUS.glob("*.p")):
        assert dtf.parse_file(str(path)).role_counts() == run._corpus_roles(str(path))
    for path in sorted((run.CORPUS / "negative").glob("*.p")):
        with contextlib.redirect_stderr(io.StringIO()):
            code = dtf.cli.run(["check", str(path)])
        assert code == run._documented_exit(str(path)), path.name


def test_tracer_counts_layers_and_restores(tmp_path: Path):
    text, expected = generate.generate(2, 6, 2, "traced")
    path = tmp_path / "traced.p"
    path.write_text(text)
    original = dtf.deep.alpha_equal
    tracer = Tracer()
    with tracer.installed(dtf), tracer.span("cli.run"):
        code, out, _, _ = run.run_inprocess(dtf, ["check", "--deep", str(path)])
    assert dtf.deep.alpha_equal is original
    assert code == 0 and out.splitlines()[-1] == expected.check_summary()
    metrics = layer_metrics(tracer.spans)
    assert metrics["deep.emit_calls"] == 6
    assert metrics["deep.residual"] == len(expected.residual)
    assert metrics["deep.discharged"] == len(expected.discharged_by)
    assert metrics["syntax.tokens"] > 0 and metrics["prover.tasks"] == 0
    assert 0 < metrics["deep.self_s"] < metrics["deep.check_s"] <= metrics["cli.run_s"]
