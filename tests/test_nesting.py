"""Deeply nested input ends in a located diagnostic, never a traceback."""

import pytest

from dtf import cli
from dtf.cli import EXIT_OK, EXIT_PARSE, EXIT_SYSTEM, run
from dtf.syntax import MAX_NESTING, Problem, parse_problem

HEADER = """\
thf(p_type, type, p: $o).
thf(nat_type, type, nat: $tType).
thf(vec_type, type, vec: nat > $tType).
thf(n_type, type, n: nat).
thf(m_type, type, m: nat).
thf(v_type, type, v: vec @ n).
thf(w_type, type, w: vec @ m).
"""


def _implications(k: int) -> str:
    # p => (p => ... (v = w)): the residual obligation n = m sits under k
    # local assumptions.
    return "(p => " * k + "(v = w)" + ")" * k


# Each shape maps a depth d >= 3 to a formula nested exactly d levels deep.
SHAPES = {
    "conjunctions": lambda d: " & ".join(["p"] * d),
    "parentheses": lambda d: "(" * (d - 1) + "p" + ")" * (d - 1),
    "negations": lambda d: "~ " * (d - 1) + "p",
    "binder variables": lambda d: "! [" + ", ".join(f"X{i}: $o" for i in range(d - 1)) + "]: p",
    "implications": lambda d: _implications(d - 2),
}


def _commands(path: str, out_dir: str, prover: str) -> dict:
    return {
        "parse": ["parse", "--print", path],
        "check": ["check", path],
        "check --deep": ["check", "--deep", "--verbose", path],
        "translate": ["translate", "--assume-obligations", path],
        "stats": ["stats", path],
        "obligations": ["obligations", "--all", "--out-dir", out_dir, path],
        "solve": ["solve", "--prover", prover, path],
    }


@pytest.mark.parametrize("shape", SHAPES)
def test_every_subcommand_at_and_past_the_limit(shape, tmp_path, fake_prover, capsys):
    prover = fake_prover("echo '% SZS status Theorem'") + " {file}"
    at_limit = tmp_path / "at_limit.p"
    at_limit.write_text(HEADER + f"thf(deep, axiom, {SHAPES[shape](MAX_NESTING)}).\n")
    too_deep = tmp_path / "too_deep.p"
    too_deep.write_text(HEADER + f"thf(deep, axiom, {SHAPES[shape](MAX_NESTING + 1)}).\n")

    for name, argv in _commands(str(at_limit), str(tmp_path / "obs"), prover).items():
        assert run(argv) == EXIT_OK, name
        assert capsys.readouterr().err in ("", "no obligations to export\n"), name

    for name, argv in _commands(str(too_deep), str(tmp_path / "obs2"), prover).items():
        assert run(argv) == EXIT_PARSE, name
        err = capsys.readouterr().err
        assert err.startswith(f"{too_deep}:8:"), name
        assert f"error: formula nests deeper than {MAX_NESTING} levels" in err, name


def test_limit_counts_declaration_types():
    arrows = " > ".join(["$o"] * (MAX_NESTING + 1))
    result = parse_problem(f"thf(c_type, type, c: {arrows}).\n")
    assert not isinstance(result, Problem)
    assert "nests deeper" in result[0].message


def test_parser_recovers_after_a_too_deep_formula():
    text = ("thf(p_type, type, p: $o).\n"
            f"thf(a, axiom, {SHAPES['parentheses'](MAX_NESTING + 1)}).\n"
            f"thf(b, axiom, {SHAPES['parentheses'](MAX_NESTING + 1)}).\n")
    result = parse_problem(text)
    assert [d.span.line for d in result] == [2, 3]


def test_unexpected_exception_is_one_line_and_exit_3(corpus_dir, monkeypatch, capsys):
    def boom(problem):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.shallow, "check_shallow", boom)
    assert run(["check", str(corpus_dir / "hol.p")]) == EXIT_SYSTEM
    assert capsys.readouterr().err == "dtf: internal error: RuntimeError: boom\n"
