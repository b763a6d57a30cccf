"""Located diagnostics: each error names its file, line and column, and a
formula read from an included file is reported under that file's path."""

import pytest

from dtf.cli import EXIT_CHECK, EXIT_PARSE, run
from dtf.deep import check_problem
from dtf.shallow import check_shallow
from dtf.syntax import parse_file, parse_problem

from genutil import gen_polymorphic_input
from test_deep import BUDGET_FILES

PRELUDE = """\
thf(nat_type, type, nat: $tType).
thf(z_type, type, z: nat).
thf(vec_type, type, vec: nat > $tType).
"""


# `<=>` is equality at $o, so its operands must be formulae.
EQUIVALENCE_ROWS = [
    ("thf(a, axiom, z <=> z).", EXIT_CHECK, "4:17: error: equivalence operands must have skeleton $o, got nat"),
    ("thf(a, axiom, z <~> z).", EXIT_CHECK, "4:17: error: equivalence operands must have skeleton $o, got nat"),
    ("thf(a, axiom, z <=> $true).", EXIT_CHECK,
     "4:17: error: equation sides have different skeletons: nat vs $o"),
]


def _check(args: list, capsys) -> tuple:
    code = run(["check", *args])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


# -- one line after the prelude, one diagnostic -----------------------------------


@pytest.mark.parametrize("line, code, expected", [
    ("fof(a, axiom, $true).", EXIT_PARSE, "4:1: error: only thf formulae are supported, found 'fof'"),
    ("thf(a, axiom, (z = z = z)).", EXIT_PARSE, "4:22: error: chained equality needs parentheses"),
    ("thf(a, axiom, ?* [X: nat]: $true).", EXIT_PARSE, "4:15: error: unsupported binder '?*'"),
    ("thf(a, axiom, (@+ [X: nat, Y: nat]: $true) = z).", EXIT_PARSE,
     "4:16: error: choice binds exactly one variable"),
    ("thf(c_type, type, c: $i).", EXIT_PARSE, "4:22: error: unsupported $-symbol '$i' in type position"),
    ("thf(a, axiom, ! [X: nat, Y: X]: $true).", EXIT_PARSE,
     "4:29: error: term variable 'X' used as a type"),
    ("thf(c_type, type, c: A).", EXIT_PARSE, "4:22: error: unbound type variable 'A'"),
    ("thf(c_type, type, c: z).", EXIT_PARSE, "4:22: error: 'z' is not a type symbol"),
    ("thf(c_type, type, c: ^ [X: nat]: nat).", EXIT_PARSE,
     "4:22: error: binder '^' cannot appear in a type"),
    ("thf(a, axiom, (vec @ z) = z).", EXIT_PARSE, "4:16: error: type symbol 'vec' used as a term"),
    ("thf(a, axiom, (vec @ z @ z) = z).", EXIT_PARSE, "4:16: error: type symbol 'vec' used as a term"),
    ("thf(a, axiom, ('vec' @ z) = z).", EXIT_PARSE, "4:16: error: type symbol 'vec' used as a term"),
    ("thf(c_type, type, c: vec @ vec).", EXIT_PARSE, "4:28: error: type symbol 'vec' used as a term"),
    ("thf(a, axiom, $o).", EXIT_PARSE, "4:15: error: $o cannot appear in a formula"),
    ("thf(a, axiom, ! [A: $tType]: (A = A)).", EXIT_PARSE,
     "4:31: error: type variable 'A' used as a term"),
    ("thf(a, axiom, !> [X: nat]: $true).", EXIT_PARSE,
     "4:15: error: '!>' is only allowed in declaration types"),
    ("thf(a, axiom, ~ z).", EXIT_CHECK, "4:15: error: negation operand must have skeleton $o, got nat"),
    ("thf(c_type, type, c: vec @ $true).", EXIT_CHECK,
     "4:28: error: argument 1 of type 'vec' has skeleton $o, expected nat"),
    ("thf(a, axiom, $true => $true => $true).", EXIT_PARSE, "4:30: error: '=>' after '=>' needs parentheses"),
    ("thf(a, axiom, $true & $true | $true).", EXIT_PARSE, "4:29: error: '|' after '&' needs parentheses"),
    ("thf(a, axiom, $true <=> $true <=> $true).", EXIT_PARSE,
     "4:31: error: '<=>' after '<=>' needs parentheses"),
    ("thf(a, axiom, z != z != z).", EXIT_PARSE, "4:22: error: chained equality needs parentheses"),
    ("thf(a, axiom, (z = z) > $o).", EXIT_PARSE, "4:23: error: arrow cannot appear in a formula"),
    ("thf(c_type, type, c: (z = z)).", EXIT_PARSE, "4:25: error: expected a type"),
    ("thf(c_type, type, c: ~ nat).", EXIT_PARSE, "4:22: error: expected a type"),
    ("thf(c_type, type, c: (nat > nat) @ z).", EXIT_PARSE,
     "4:34: error: type application needs a type-symbol head"),
    ("thf(c_type, type, c: nat > nat & nat).", EXIT_PARSE, "4:32: error: '&' after '>' needs parentheses"),
    ("thf(a, axiom, ! [X: nat = nat]: $true).", EXIT_PARSE, "4:25: error: expected a type"),
    # a binder's variable type is read with the declaration-type grammar
    ("thf(a, axiom, ! [X: nat & nat]: $true).", EXIT_PARSE, "4:25: error: expected a type"),
    ("thf(a, axiom, ! [X: nat > nat & nat]: $true).", EXIT_PARSE,
     "4:31: error: '&' after '>' needs parentheses"),
    ("thf(a, axiom, ! [X: nat <=> nat]: $true).", EXIT_PARSE, "4:25: error: expected a type"),
    ("thf(a, axiom, ! [X: nat <~> nat > nat]: $true).", EXIT_PARSE,
     "4:33: error: '>' after '<~>' needs parentheses"),
    ("include(X).", EXIT_PARSE, "4:9: error: include expects a quoted file name"),
    ("thf(, axiom, $true).", EXIT_PARSE, "4:5: error: expected a formula name"),
    ("thf(t, type, X: $o).", EXIT_PARSE, "4:14: error: expected the declared symbol name"),
    ("thf(a, axiom, (z z)).", EXIT_PARSE, "4:18: error: expected ')', found 'z'"),
    ("thf(c_type, type, c: $o @ z).", EXIT_PARSE, "4:25: error: only base types take term arguments"),
    # skeleton errors nested in a type argument, a binder domain and an applied argument
    ("thf(c_type, type, c: vec @ (z @ z)).", EXIT_CHECK,
     "4:31: error: term of skeleton nat cannot be applied"),
    ("thf(a, axiom, ! [X: vec @ (z @ z)]: $true).", EXIT_CHECK,
     "4:30: error: term of skeleton nat cannot be applied"),
    ("thf(a, axiom, (^ [X: nat]: $true) @ (z @ z)).", EXIT_CHECK,
     "4:40: error: term of skeleton nat cannot be applied"),
    *EQUIVALENCE_ROWS,
])
def test_one_line_diagnostic(line, code, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.p").write_text(PRELUDE + line + "\n", encoding="utf-8")
    assert _check(["p.p"], capsys) == (code, f"p.p:{expected}\n")


@pytest.mark.parametrize("line, code, expected", EQUIVALENCE_ROWS)
def test_the_deep_check_reports_a_bad_equivalence_operand_once(line, code, expected, tmp_path,
                                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.p").write_text(PRELUDE + line + "\n", encoding="utf-8")
    assert _check(["--deep", "p.p"], capsys) == (code, f"p.p:{expected}\n")


@pytest.mark.parametrize("op", ["<=>", "<~>"])
def test_deep_check_problem_alone_rejects_an_equivalence_of_terms(op):
    problem = parse_problem(PRELUDE + f"thf(a, axiom, z {op} z).\n", "p.p")
    [diagnostic] = check_problem(problem).diagnostics
    assert diagnostic.format() == "p.p:4:17: error: types differ: nat vs $o"


# -- included files ----------------------------------------------------------------


def test_shallow_diagnostic_names_the_included_file(fixtures_dir, capsys):
    included = fixtures_dir / "include" / "inc_ax.ax"
    assert _check([str(fixtures_dir / "include" / "inc_main.p")], capsys) == (
        EXIT_CHECK, f"{included}:4:1: error: formula 'bad_ax' must have skeleton $o, got nat\n")


def test_included_file_is_named_relative_to_the_path_as_typed(fixtures_dir, monkeypatch, capsys):
    """Not by its absolute path: the diagnostic does not depend on where the
    repository is checked out."""
    monkeypatch.chdir(fixtures_dir.parents[1])
    assert _check(["tests/fixtures/include/inc_main.p"], capsys) == (
        EXIT_CHECK,
        "tests/fixtures/include/inc_ax.ax:4:1: error: formula 'bad_ax' must have skeleton $o, got nat\n")


def _include(tmp_path, included: str) -> tuple:
    """A main file that includes `inc_ax.ax`, written with the text included."""
    (tmp_path / "inc_ax.ax").write_text(included, encoding="utf-8")
    main = tmp_path / "inc_main.p"
    main.write_text("include('inc_ax.ax').\nthf(g, conjecture, $true).\n", encoding="utf-8")
    return str(main), str(tmp_path / "inc_ax.ax")


def test_elaboration_diagnostic_names_the_included_file(fixtures_dir, tmp_path, capsys):
    text = (fixtures_dir / "include" / "inc_ax.ax").read_text(encoding="utf-8")
    main, included = _include(tmp_path, text + "thf(bad_ref, axiom, q).\n")
    assert _check([main], capsys) == (EXIT_PARSE, f"{included}:5:21: error: unknown symbol 'q'\n")


def test_deep_diagnostic_names_the_included_file(tmp_path, capsys):
    main, included = _include(tmp_path, BUDGET_FILES["budget_local"])
    assert _check(["--deep", main], capsys) == (
        EXIT_CHECK, f"{included}:5:400: error: normalization budget exceeded\n")


def test_lexer_diagnostic_names_the_included_file(tmp_path, capsys):
    main, included = _include(tmp_path, PRELUDE + "thf(a, axiom, #).\n")
    assert _check([main], capsys) == (EXIT_PARSE, f"{included}:4:15: error: unexpected character '#'\n")


def test_main_file_diagnostics_keep_the_main_path(tmp_path, capsys):
    main, _ = _include(tmp_path, PRELUDE)
    with open(main, "a", encoding="utf-8") as handle:
        handle.write("thf(bad, axiom, z).\n")
    assert _check([main], capsys) == (
        EXIT_CHECK, f"{main}:3:1: error: formula 'bad' must have skeleton $o, got nat\n")


def test_polymorphism_diagnostic_names_the_included_file(tmp_path, capsys):
    main, included = _include(tmp_path, PRELUDE + "thf(id_type, type, id: !> [A: $tType]: (A > A)).\n")
    assert _check([main], capsys) == (
        EXIT_CHECK, f"{included}:4:1: error: polymorphic declarations are not supported\n")


# -- polymorphism, located where the elaborator met it ------------------------------


@pytest.mark.parametrize("seed", range(60))
def test_a_generated_polymorphic_input_gives_one_located_line(seed, tmp_path, capsys):
    text, line, column = gen_polymorphic_input(seed)
    path = tmp_path / "poly.p"
    path.write_text(text, encoding="utf-8")
    expected = f"{path}:{line}:{column}: error: polymorphic declarations are not supported"
    problem = parse_file(str(path))
    assert [d.format() for d in check_shallow(problem)] == [expected]
    assert [d.format() for d in check_problem(problem).diagnostics] == [expected]
    assert _check([str(path)], capsys) == (EXIT_CHECK, expected + "\n")
