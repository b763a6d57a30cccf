"""Lexing, parsing, and elaboration."""

import re
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtf.cli import EXIT_PARSE, run
from dtf.core import (
    And,
    App,
    BaseApp,
    BoolType,
    Choice,
    Const,
    Eq,
    Exists,
    Forall,
    Lam,
    Not,
    Pi,
    Top,
    Var,
    alpha_equal,
)
from dtf.deep import check_problem
from dtf.diagnostics import DiagnosticError
from dtf.printer import print_problem
from dtf.shallow import check_shallow
from dtf.syntax import START, Problem, locate, parse_file, parse_problem, tokenize

from genutil import gen_formula_problem, gen_problem
from test_lexer import PIECES
from theoryutil import axioms, const_decl, type_decl

REPO = Path(__file__).resolve().parents[1]

PRELUDE = """
thf(nat_type, type, nat: $tType).
thf(zero_type, type, zero: nat).
thf(suc_type, type, suc: nat > nat).
thf(p_type, type, p: nat > $o).
thf(q_type, type, q: $o).
thf(r_type, type, r: $o).
"""


def parse_ok(text: str) -> Problem:
    result = parse_problem(textwrap.dedent(text))
    assert isinstance(result, Problem), [d.message for d in result]
    return result


def parse_bad(text: str):
    result = parse_problem(textwrap.dedent(text))
    assert isinstance(result, list) and result, "expected diagnostics"
    return result


def only_axiom(problem: Problem):
    return axioms(problem.theory)[-1].formula


# -- basic shapes ---------------------------------------------------------------


def test_parse_worked_example_shape(corpus_dir):
    problem = parse_file(str(corpus_dir / "list_append.p"))
    assert isinstance(problem, Problem)
    counts = problem.role_counts()
    assert counts == {"type": 9, "axiom": 3, "conjecture": 1}
    assert problem.conjecture_name == "list_app_assoc_base"
    assert not problem.polymorphic
    list_decl = type_decl(problem.theory, "list")
    assert list_decl is not None and len(list_decl.telescope) == 1
    cons = const_decl(problem.theory, "cons")
    assert isinstance(cons.ty, Pi)
    assert cons.ty.binder.text == "N"


def test_application_is_left_nested():
    problem = parse_ok(PRELUDE + "thf(a, axiom, p @ (suc @ zero)).")
    f = only_axiom(problem)
    assert f == App(Const(f.fun.name), App(Const(f.arg.fun.name), Const(f.arg.arg.name)))


def test_binder_list_sugar():
    problem = parse_ok(PRELUDE + "thf(a, axiom, ! [X: nat, Y: nat]: (p @ X)).")
    f = only_axiom(problem)
    assert isinstance(f, Forall) and isinstance(f.body, Forall)
    assert f.binder.text == "X" and f.body.binder.text == "Y"


def test_lambda_and_choice():
    problem = parse_ok(PRELUDE + "thf(a, axiom, p @ ((^ [X: nat]: (X)) @ zero)).")
    lam = only_axiom(problem).arg.fun
    assert isinstance(lam, Lam)
    problem = parse_ok(PRELUDE + "thf(a, axiom, p @ (@+ [X: nat]: (p @ X))).")
    assert isinstance(only_axiom(problem).arg, Choice)


# -- connective sugar -------------------------------------------------------------


def test_iff_is_equality_at_o():
    f = only_axiom(parse_ok(PRELUDE + "thf(a, axiom, q <=> r)."))
    assert isinstance(f, Eq) and isinstance(f.at, BoolType)
    assert (f.left.name.text, f.right.name.text) == ("q", "r")


def test_an_equation_with_a_formula_left_side_is_at_o():
    f = only_axiom(parse_ok(PRELUDE + "thf(a, axiom, ((~ q) = q))."))
    assert isinstance(f, Eq) and isinstance(f.at, BoolType)
    assert isinstance(f.left, Not)


def test_reverse_implication_swaps_sides():
    f = only_axiom(parse_ok(PRELUDE + "thf(a, axiom, q <= r)."))
    g = only_axiom(parse_ok(PRELUDE + "thf(a, axiom, r => q)."))
    assert alpha_equal(f, g)


def test_xor_is_negated_iff():
    f = only_axiom(parse_ok(PRELUDE + "thf(a, axiom, q <~> r)."))
    g = only_axiom(parse_ok(PRELUDE + "thf(a, axiom, q <=> r)."))
    assert isinstance(f, Not) and alpha_equal(f.arg, g)


def test_disequality_is_negated_equality():
    f = only_axiom(parse_ok(PRELUDE + "thf(a, axiom, zero != (suc @ zero))."))
    assert isinstance(f, Not) and isinstance(f.arg, Eq)


def test_truth_constants():
    f = only_axiom(parse_ok(PRELUDE + "thf(a, axiom, q <=> $true)."))
    assert isinstance(f, Eq) and isinstance(f.at, BoolType) and isinstance(f.right, Top)


def test_mixed_connectives_need_parens():
    diags = parse_bad(PRELUDE + "thf(a, axiom, q & r | q).")
    assert any("parentheses" in d.message for d in diags)


def test_chained_implication_needs_parens():
    diags = parse_bad(PRELUDE + "thf(a, axiom, q => r => q).")
    assert any("parentheses" in d.message for d in diags)


def test_and_chain_is_allowed():
    f = only_axiom(parse_ok(PRELUDE + "thf(a, axiom, q & r & q)."))
    assert isinstance(f, And) and isinstance(f.left, And)


# -- declarations -------------------------------------------------------------------


def test_dependent_type_declaration_telescope():
    problem = parse_ok("""
        thf(nat_type, type, nat: $tType).
        thf(vec_type, type, vec: nat > nat > $tType).
    """)
    decl = type_decl(problem.theory, "vec")
    assert len(decl.telescope) == 2
    assert all(ty == BaseApp(decl.telescope[0][1].head) for _, ty in decl.telescope)


def test_pi_binder_declaration():
    problem = parse_ok("""
        thf(nat_type, type, nat: $tType).
        thf(vec_type, type, vec: nat > $tType).
        thf(f_type, type, f: !> [N: nat]: ((vec @ N) > nat)).
    """)
    f = const_decl(problem.theory, "f")
    assert isinstance(f.ty, Pi) and f.ty.binder.text == "N"
    inner = f.ty.codomain
    assert isinstance(inner, Pi)
    assert inner.domain == BaseApp(type_decl(problem.theory, "vec").name, (Var(f.ty.binder),))


def test_parenthesized_typing():
    problem = parse_ok("thf(t, type, (nat: $tType)). thf(c, type, (zero: nat)).")
    assert type_decl(problem.theory, "nat") is not None
    assert const_decl(problem.theory, "zero") is not None


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_a_typing_in_nested_parentheses_parses_and_round_trips(depth):
    # <thf_atom_typing> ::= <untyped_atom> : <thf_top_level_type> | (<thf_atom_typing>)
    text = f"thf(t, type, {'(' * depth}c: $o{')' * depth})."
    printed = print_problem(parse_ok(text))
    assert printed == "thf(t, type, c: $o).\n"
    assert print_problem(parse_ok(printed)) == printed


@pytest.mark.parametrize("text, message", [
    ("thf(t, type, ((c: $o)).", "1:23: expected ')', found '.'"),
    ("thf(t, type, (c): $o).", "1:14: expected the declared symbol name"),
], ids=["unbalanced", "parenthesized_name"])
def test_a_typing_in_parentheses_is_refused_where_it_is_not_one(text, message):
    diags = parse_bad(text)
    assert [f"{d.span.line}:{d.span.column}: {d.message}" for d in diags] == [message]


def test_duplicate_declaration_rejected():
    diags = parse_bad("""
        thf(t1, type, nat: $tType).
        thf(t2, type, nat: $tType).
    """)
    assert any("duplicate" in d.message for d in diags)


def test_two_conjectures_rejected():
    diags = parse_bad(PRELUDE + """
        thf(c1, conjecture, q).
        thf(c2, conjecture, r).
    """)
    assert any("one conjecture" in d.message for d in diags)


def test_unknown_role_rejected():
    diags = parse_bad(PRELUDE + "thf(a, guess, q).")
    assert any("role" in d.message for d in diags)


# -- errors with positions -------------------------------------------------------------


def test_unknown_symbol_has_position():
    diags = parse_bad(PRELUDE + "thf(a, axiom, p @ missing).")
    d = next(d for d in diags if "missing" in d.message)
    assert d.span is not None and d.span.line == 8  # PRELUDE is 7 lines incl. blank


@pytest.mark.parametrize("text, message", [
    ("thf(q_type, type, q: $o > $o).\nthf(a, axiom, q '').", "2:17: expected ')', found ''"),
    ("thf(a, axiom, $true ''", "1:21: expected ')', found ''"),
    ("thf(a, axiom, $true", "1:20: expected ')', found 'end of input'"),
    ("thf(a, axiom, ", "1:15: expected a term, found 'end of input'"),
    ("''", "1:1: expected 'thf' or 'include', found ''"),
], ids=["empty_quoted_argument", "empty_quoted_after_formula", "eof", "eof_term", "item"])
def test_empty_quoted_atom_is_not_end_of_input(text, message):
    diags = parse_bad(text)
    located = [f"{d.span.line}:{d.span.column}: {d.message}" for d in diags]
    assert located[0] == message


def test_unbound_variable_rejected():
    diags = parse_bad(PRELUDE + "thf(a, axiom, p @ X).")
    assert any("unbound variable 'X'" in d.message for d in diags)


def test_description_binder_rejected():
    diags = parse_bad(PRELUDE + "thf(a, axiom, p @ (@- [X: nat]: (p @ X))).")
    assert any("description not supported" in d.message for d in diags)


def test_numbers_rejected():
    diags = parse_bad(PRELUDE + "thf(a, axiom, p @ 42).")
    assert any("number" in d.message for d in diags)


def test_unsupported_dollar_symbol_rejected():
    diags = parse_bad(PRELUDE + "thf(a, axiom, p @ $sum).")
    assert any("$-symbol" in d.message for d in diags)


def test_arrow_in_formula_rejected():
    diags = parse_bad(PRELUDE + "thf(a, axiom, q > r).")
    assert any("arrow" in d.message for d in diags)


def test_parse_error_recovery_reports_multiple():
    diags = parse_bad(PRELUDE + """
        thf(a, axiom, p @ missing_one).
        thf(b, axiom, p @ missing_two).
    """)
    assert len(diags) >= 2


# -- polymorphism flag ---------------------------------------------------------------


def test_rank1_binder_sets_polymorphic_flag():
    problem = parse_ok("thf(id_type, type, id: !> [A: $tType]: (A > A)).")
    assert problem.polymorphic


def test_mixed_binder_order_rejected():
    # all-type-variable binders are fine ...
    ok = parse_ok("thf(w_type, type, w: !> [N: $tType, A: $tType]: (A > N)).")
    assert ok.polymorphic
    # ... but a type variable after a term variable is not
    diags = parse_bad(
        "thf(nat_type, type, nat: $tType).\n"
        "thf(w_type, type, w: !> [N: nat, A: $tType]: (A > nat > $tType)).\n")
    assert any("precede" in d.message for d in diags)


def test_prenex_only_pi_binder():
    diags = parse_bad(
        "thf(nat_type, type, nat: $tType).\n"
        "thf(f_type, type, f: nat > (!> [N: nat]: nat)).\n")
    assert any("prenex" in d.message for d in diags)


# -- binder hygiene ---------------------------------------------------------------------


def test_shadowed_binders_are_freshened():
    problem = parse_ok(PRELUDE +
                       "thf(a, axiom, ! [X: nat]: ((p @ X) & (! [X: nat]: (p @ X)))).")
    outer = only_axiom(problem)
    inner = outer.body.right
    assert isinstance(outer, Forall) and isinstance(inner, Forall)
    assert outer.binder.text != inner.binder.text
    # each occurrence refers to its own binder
    assert outer.body.left.arg == Var(outer.binder)
    assert inner.body.arg == Var(inner.binder)


def test_sibling_binders_keep_their_names_across_formulae():
    problem = parse_ok(PRELUDE + """
        thf(a1, axiom, ! [N: nat]: (p @ N)).
        thf(a2, axiom, ! [N: nat]: (p @ N)).
    """)
    a1, a2 = axioms(problem.theory)[-2:]
    assert a1.formula.binder.text == "N"
    assert a2.formula.binder.text == "N"


# -- equation annotations ------------------------------------------------------------------


def test_equation_annotation_from_left_side():
    problem = parse_ok(PRELUDE + "thf(a, axiom, (suc @ zero) = zero).")
    eq = only_axiom(problem)
    assert eq.at == BaseApp(type_decl(problem.theory, "nat").name)


def test_equation_annotation_dependent():
    problem = parse_ok("""
        thf(nat_type, type, nat: $tType).
        thf(zero_type, type, zero: nat).
        thf(vec_type, type, vec: nat > $tType).
        thf(v_type, type, v: vec @ zero).
        thf(a, axiom, v = v).
    """)
    eq = only_axiom(problem)
    assert isinstance(eq.at, BaseApp) and eq.at.head.text == "vec"
    assert eq.at.args == (Const(const_decl(problem.theory, "zero").name),)


def test_equation_annotation_bool():
    problem = parse_ok(PRELUDE + "thf(a, axiom, q = r).")
    assert isinstance(only_axiom(problem).at, BoolType)


# -- quoted atoms -----------------------------------------------------------------------


def test_quoted_atom_with_space():
    problem = parse_ok("""
        thf(t, type, nat: $tType).
        thf(z, type, 'my zero': nat).
        thf(a, axiom, 'my zero' = 'my zero').
    """)
    assert const_decl(problem.theory, "my zero") is not None


def test_quoted_atom_same_as_bare():
    problem = parse_ok("""
        thf(t, type, nat: $tType).
        thf(z, type, 'zero': nat).
        thf(a, axiom, zero = 'zero').
    """)
    eq = only_axiom(problem)
    assert eq.left == eq.right


def test_quoted_atom_escapes():
    problem = parse_ok("""
        thf(t, type, nat: $tType).
        thf(z, type, 'it\\'s': nat).
        thf(a, axiom, 'it\\'s' = 'it\\'s').
    """)
    assert const_decl(problem.theory, "it's") is not None


# -- includes ----------------------------------------------------------------------------


def test_include_splices_formulae(tmp_path):
    (tmp_path / "base.ax").write_text(
        "thf(nat_type, type, nat: $tType).\n"
        "thf(zero_type, type, zero: nat).\n")
    main = tmp_path / "main.p"
    main.write_text(
        "include('base.ax').\n"
        "thf(a, axiom, zero = zero).\n")
    problem = parse_file(str(main))
    assert isinstance(problem, Problem)
    assert type_decl(problem.theory, "nat") is not None
    assert len(axioms(problem.theory)) == 1


def test_include_cycle_detected(tmp_path):
    a = tmp_path / "a.p"
    b = tmp_path / "b.ax"
    a.write_text("include('b.ax').\n")
    b.write_text("include('a.p').\n")
    diags = parse_file(str(a))
    assert isinstance(diags, list)
    assert any("circular include" in d.message for d in diags)


def test_include_cycle_detected_when_the_back_edge_is_spelled_differently(tmp_path, monkeypatch):
    d = tmp_path / "d"
    d.mkdir()
    (d / "a.p").write_text("include('b.ax').\n")
    (d / "b.ax").write_text("include('../d/a.p').\n")
    monkeypatch.chdir(d)
    diags = parse_file("a.p")
    assert isinstance(diags, list)
    assert [d.format() for d in diags] == ["b.ax:1:1: error: circular include of '../d/a.p'"]


def test_include_cycle_through_a_symbolic_link(tmp_path, monkeypatch, capsys):
    d = tmp_path / "d"
    d.mkdir()
    (d / "link").symlink_to(".")
    (d / "a.p").write_text("include('link/a.p').\n")
    (d / "ax.ax").write_text("thf(t_type, type, t: $tType).\n")
    (d / "twice.p").write_text("include('ax.ax').\ninclude('link/ax.ax').\n")
    monkeypatch.chdir(d)
    diags = parse_file("a.p")
    assert isinstance(diags, list)
    assert [d.format() for d in diags] == ["a.p:1:1: error: circular include of 'link/a.p'"]
    assert run(["check", "a.p"]) == EXIT_PARSE
    assert capsys.readouterr() == ("", "a.p:1:1: error: circular include of 'link/a.p'\n")
    # One file reached by two spellings is included twice, not a cycle.
    diags = parse_file("twice.p")
    assert isinstance(diags, list)
    assert [d.format() for d in diags] == ["link/ax.ax:1:19: error: duplicate declaration of 't'"]


def test_include_dot_dot_after_a_symbolic_link_reads_what_the_file_system_reads(tmp_path,
                                                                               monkeypatch):
    # link/../x.ax is sub/x.ax, as `cat` reads it, not the x.ax that normpath names.
    f = tmp_path / "f"
    (f / "sub" / "inner").mkdir(parents=True)
    (f / "link").symlink_to("sub/inner")
    (f / "x.ax").write_text("include('y.ax').\nthf(u_type, type, u: $tType).\n")
    (f / "y.ax").write_text("thf(w_type, type, w: $tType).\n")
    (f / "sub" / "x.ax").write_text("include('y.ax').\nthf(t_type, type, t: $tType).\n")
    (f / "sub" / "y.ax").write_text("thf(v_type, type, v: $tType).\n")
    (f / "main.p").write_text("include('link/../x.ax').\ninclude('./sub/y.ax').\n")
    monkeypatch.chdir(f)
    diags = parse_file("main.p")
    # The second include repeats sub/y.ax, under its normalized name.
    assert [d.format() for d in diags] == ["sub/y.ax:1:19: error: duplicate declaration of 'v'"]
    (f / "main.p").write_text("include('link/../x.ax').\n")
    problem = parse_file("main.p")
    assert isinstance(problem, Problem)
    # Each file is named by the path it was opened as, since the normalized
    # name would be another file.
    assert [(d.name.text, d.path) for d in problem.theory.decls] == [
        ("v", "link/../y.ax"), ("t", "link/../x.ax")]


def test_include_missing_file(tmp_path):
    main = tmp_path / "main.p"
    main.write_text("include('nope.ax').\n")
    diags = parse_file(str(main))
    assert isinstance(diags, list)
    assert any("cannot read include" in d.message for d in diags)


@pytest.mark.parametrize("data, where, byte", [
    # Line 1 ends in CRLF, and the 0xff follows a two-byte 'é'.
    (b"thf(nat_type, type, nat: $tType).\r\nthf(z_type, type, \xc3\xa9\xff: nat).\n", "2:20", "0xff"),
    (b"% \xe2\x82\n", "1:3", "0xe2"),
], ids=["after_crlf_and_a_two_byte_character", "truncated_sequence"])
def test_a_byte_that_is_not_utf8_is_a_located_read_error(tmp_path, data, where, byte):
    bad = tmp_path / "bad.p"
    bad.write_bytes(data)
    assert [d.format() for d in parse_file(str(bad))] == [
        f"{bad}:{where}: error: cannot read '{bad}': byte {byte} is not UTF-8"]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_other_line_ends_keep_the_spans_of_lf_input(tmp_path, newline):
    # An elaboration error, and a lexical one whose span runs to the line end.
    for formula, span in [("q & zz", (9, 7, 2)), ("'open & q", (9, 3, 11))]:
        text = PRELUDE + f"thf(a, axiom,\n  {formula}).\n"
        (tmp_path / "lf.p").write_bytes(text.encode())
        (tmp_path / "other.p").write_bytes(text.replace("\n", newline).encode())
        lf, other = parse_file(str(tmp_path / "lf.p")), parse_file(str(tmp_path / "other.p"))
        assert [d.span for d in other] == [d.span for d in lf] == [span]
        if newline == "\r\n":  # a text not read from a file keeps its "\r\n"
            assert [d.span for d in parse_problem(text.replace("\n", newline))] == [span]


def test_include_of_a_file_that_is_not_utf8_is_reported_at_the_include(tmp_path, monkeypatch):
    (tmp_path / "bad.ax").write_bytes(b"% fine\n%  \xff\n")
    (tmp_path / "main.p").write_text("% the include is on line 2\ninclude('bad.ax').\n")
    monkeypatch.chdir(tmp_path)
    assert [d.format() for d in parse_file("main.p")] == [
        "main.p:2:1: error: cannot read include 'bad.ax': byte 0xff at line 2, column 4 "
        "is not UTF-8"]


def test_include_selection_warns(tmp_path):
    (tmp_path / "base.ax").write_text("thf(nat_type, type, nat: $tType).\n")
    main = tmp_path / "main.p"
    main.write_text("include('base.ax', [nat_type]).\n")
    problem = parse_file(str(main))
    assert isinstance(problem, Problem)
    assert any("selection" in w.message for w in problem.warnings)


# -- comments and annotations ------------------------------------------------------------------


def test_comments_are_skipped():
    problem = parse_ok("""
        % a line comment
        /* a block
           comment */
        thf(t, type, nat: $tType). % trailing
    """)
    assert type_decl(problem.theory, "nat") is not None


def test_source_annotations_parse_and_are_skipped():
    problem = parse_ok(PRELUDE +
                       "thf(a, axiom, q, file('other.p', a), [useful]).")
    assert problem.role_counts() == {"type": 6, "axiom": 1}
    assert [a.label for a in axioms(problem.theory)] == ["a"]
    diags = parse_bad(PRELUDE + "thf(a, axiom, q, file('other.p', a).")
    assert [d.message for d in diags] == ["unterminated annotation"]


def test_polymorphic_use_of_type_kind_flag():
    problem = parse_ok("thf(c_type, type, c: $tType > $o).")
    assert problem.polymorphic


def test_type_symbol_in_term_position_rejected():
    diags = parse_bad(PRELUDE + "thf(a, axiom, p @ nat).")
    assert any("type symbol" in d.message for d in diags)


def test_empty_input_is_a_problem_without_formulae():
    problem = parse_ok("% nothing here\n")
    assert problem.role_counts() == {}
    assert problem.conjecture is None


def test_exists_parses():
    f = only_axiom(parse_ok(PRELUDE + "thf(a, axiom, ? [X: nat]: (p @ X))."))
    assert isinstance(f, Exists)


# -- lexing one item at a time ---------------------------------------------------------


def test_a_lexical_error_after_the_diagnostic_cap_is_the_only_diagnostic(tmp_path, capsys):
    # The 21 bad items alone would give 20 parse errors.
    text = "thf(aK, axiom, ).\n" * 21 + "thf(z, axiom, # ).\n"
    assert [d.format() for d in parse_problem(text)] == [
        "<input>:22:15: error: unexpected character '#'"]
    path = tmp_path / "lexical-after-cap.p"
    path.write_text(text, encoding="utf-8")
    assert run(["check", str(path)]) == EXIT_PARSE
    assert capsys.readouterr() == ("", f"{path}:22:15: error: unexpected character '#'\n")


def _lexed(lex, text: str):
    """The tokens lex gives for text, or the diagnostic it raises."""
    try:
        return lex(text)
    except DiagnosticError as exc:
        return exc.diagnostic


def _chained(text: str) -> list:
    tokens, after = [], START
    while after.kind != "eof":
        window = tokenize(text, "f.p", after=after)
        assert window[-1].kind in (".", "eof")
        assert all(t.kind not in (".", "eof") for t in window[:-1])
        tokens += window
        after = window[-1]
    return tokens


ITEM_TEXTS = st.lists(st.sampled_from(PIECES + ["thf(a, axiom, ", ").", "."] * 4),
                      max_size=40).map("".join)


@settings(max_examples=300, deadline=None)
@given(ITEM_TEXTS)
def test_chained_windows_rebuild_the_token_list(text):
    assert _lexed(_chained, text) == _lexed(lambda t: tokenize(t, "f.p"), text)


@settings(max_examples=300, deadline=None)
@given(ITEM_TEXTS)
def test_a_lexical_error_is_the_only_diagnostic(text):
    lexed = _lexed(tokenize, text)
    if isinstance(lexed, list):
        return
    assert parse_problem(text) == [lexed]


# -- every diagnostic names a token ------------------------------------------------

def _mutants(text: str) -> list:
    """One-edit mutations of a generated problem: an unknown constant in an
    axiom, the index arguments of a type swapped, and `$o` for a base type."""
    lines = text.splitlines(keepends=True)
    out = []
    for i, line in enumerate(lines):
        edits = []
        if ", axiom," in line or ", conjecture," in line:
            edits.append(re.sub(r"\bk\d+\b", "unknown_k", line, count=1))
        edits.append(re.sub(r"@ (\w+) @ (\w+)", r"@ \2 @ \1", line, count=1))
        edits.append(re.sub(r"(: |\[\w+: )b\d+\b", r"\1$o", line, count=1))
        out += ["".join(lines[:i] + [edit] + lines[i + 1:]) for edit in edits if edit != line]
    return out


def _diagnostics_name_tokens(text: str, path=None) -> int:
    """Each diagnostic of the front end and of both checkers spans a token of
    the file it names, as `locate` gives it; returns how many there are."""
    try:
        tokenize(text)
    except DiagnosticError as exc:
        assert parse_problem(text, path) == [exc.diagnostic]
        return 1
    result = parse_problem(text, path)
    if isinstance(result, Problem):
        result = check_shallow(result) + check_problem(result).diagnostics
    for d in result:
        named = text if d.path == path else Path(d.path).read_text(encoding="utf-8")
        assert d.span in {locate(named, t.span) for t in tokenize(named)}, d.format()
    return len(result)


def _named_token_inputs() -> list:
    negative = sorted((REPO / "corpus" / "negative").glob("*.p"))
    fixtures = sorted((REPO / "tests" / "fixtures").glob("*.p"))
    return [(p.read_text(encoding="utf-8"), str(p)) for p in negative + fixtures + [
        REPO / "tests" / "fixtures" / "include" / "inc_main.p"]]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_every_diagnostic_of_a_checked_file_spans_a_token(newline):
    inputs = _named_token_inputs()
    found = sum(_diagnostics_name_tokens(text.replace("\n", newline), path) for text, path in inputs)
    assert found >= len(inputs) - 2  # two fixtures are well typed


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_every_diagnostic_of_a_mutated_problem_spans_a_token(seed, newline):
    for problem in (gen_problem(seed), gen_formula_problem(seed)):
        for text in _mutants(print_problem(problem)):
            _diagnostics_name_tokens(text.replace("\n", newline))
