"""Located diagnostics: each error names its file, line and column, and a
formula read from an included file is reported under that file's path."""

import pytest

from dtf.cli import EXIT_CHECK, EXIT_PARSE, run

from test_deep import BUDGET_FILES

PRELUDE = """\
thf(nat_type, type, nat: $tType).
thf(z_type, type, z: nat).
thf(vec_type, type, vec: nat > $tType).
"""


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
])
def test_one_line_diagnostic(line, code, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.p").write_text(PRELUDE + line + "\n", encoding="utf-8")
    assert _check(["p.p"], capsys) == (code, f"p.p:{expected}\n")


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
