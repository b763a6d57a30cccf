"""Command line behavior: exit codes, output shapes, prover wiring."""

import contextlib
import gc
import io
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from dtf import cli, core
from dtf.cli import EXIT_CHECK, EXIT_OK, EXIT_PARSE, EXIT_SYSTEM, run
from dtf.printer import print_problem
from dtf.prover import PROVER_ENV_VAR
from dtf.shallow import check_shallow
from dtf.syntax import Problem, parse_file, parse_problem

from conftest import _set_collector
from genutil import load_generator

REPO = Path(__file__).resolve().parents[1]
# The benchmark's stand-in prover, as a --prover command.
FAKE_PROVER = f"sh {shlex.quote(str(REPO / 'perfbench' / 'fake_prover.sh'))} {{file}}"

# -- parse ----------------------------------------------------------------------


def test_parse_summary(corpus_dir, capsys):
    assert run(["parse", str(corpus_dir / "list_append.p")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "parsed 13 formulae" in out
    assert "type: 9" in out and "axiom: 3" in out and "conjecture: 1" in out


def test_parse_multiple_files(corpus_dir, capsys):
    first = str(corpus_dir / "list_append.p")
    second = str(corpus_dir / "hol.p")
    assert run(["parse", first, second]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(f"{first}: parsed ")
    assert lines[1].startswith(f"{second}: parsed ")


def test_parse_print_round_trips(corpus_dir, capsys):
    assert run(["parse", "--print", str(corpus_dir / "list_append.p")]) == EXIT_OK
    text = capsys.readouterr().out
    reparsed = parse_problem(text)
    assert isinstance(reparsed, Problem)
    assert check_shallow(reparsed) == []


def test_parse_print_heads_each_file_with_its_path(corpus_dir, capsys):
    first, second = str(corpus_dir / "hol.p"), str(corpus_dir / "vect.p")
    assert run(["parse", "--print", first, second]) == EXIT_OK
    assert capsys.readouterr().out == (f"% {first}\n" + print_problem(parse_file(first))
                                       + f"% {second}\n" + print_problem(parse_file(second)))


def test_parse_error_exit_code(negative_dir, capsys):
    assert run(["parse", str(negative_dir / "neg_unknown_symbol.p")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "neg_unknown_symbol.p" in err


def test_parse_missing_file(tmp_path, capsys):
    # Unreadable input is a problem-level diagnostic, not a crash.
    assert run(["parse", str(tmp_path / "absent.p")]) == EXIT_PARSE
    assert "cannot read" in capsys.readouterr().err


def test_parse_keeps_going_after_bad_file(corpus_dir, tmp_path, capsys):
    good = str(corpus_dir / "hol.p")
    bad = str(tmp_path / "absent.p")
    assert run(["parse", bad, good]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert f"{good}: parsed " in captured.out  # later inputs still processed
    assert "cannot read" in captured.err


@pytest.mark.parametrize("command", [["parse"], ["check"], ["check", "--deep"], ["stats"]],
                         ids=" ".join)
def test_a_file_that_is_not_utf8_is_located_and_the_files_after_it_still_run(command, corpus_dir,
                                                                             tmp_path, capsys):
    first, last = str(corpus_dir / "hol.p"), str(corpus_dir / "vect.p")
    bad = tmp_path / "bad.p"
    bad.write_bytes(b"thf(nat_type, type, nat: $tType).\n% \xff\n")
    assert run([*command, first, str(bad), last]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err == f"{bad}:2:3: error: cannot read '{bad}': byte 0xff is not UTF-8\n"
    if command != ["check"]:  # which prints nothing for a file it accepts
        assert first in captured.out and last in captured.out


def test_usage_error():
    assert run(["frobnicate", "x.p"]) == EXIT_PARSE
    assert run([]) == EXIT_PARSE


# -- the collector during each run ------------------------------------------------------


def test_a_run_starts_no_collection(tmp_path, collections):
    path = tmp_path / "axioms.p"
    path.write_text(load_generator().family("axioms", 1)[0], encoding="utf-8")
    gc.collect()
    collections.clear()
    assert run(["check", "--deep", str(path)]) == EXIT_OK
    assert collections == []


@pytest.mark.parametrize("argv, code", [
    (["check", "--deep", "corpus/vect.p"], EXIT_OK),
    (["frobnicate", "corpus/vect.p"], EXIT_PARSE),
    (["check", "corpus/negative/neg_unknown_symbol.p"], EXIT_PARSE),
    (["check", "corpus/negative/neg_app_mismatch.p"], EXIT_CHECK),
], ids=["success", "usage_error", "parse_error", "check_failure"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_run_leaves_the_collector_as_it_found_it(argv, code, enabled, monkeypatch):
    monkeypatch.chdir(REPO)
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        _set_collector(enabled)
        assert run(argv) == code
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        _set_collector(was_enabled)


def test_a_parse_inside_a_run_reserves_no_chunk_of_its_own(monkeypatch):
    # The run's own chunk holds every parse in it; a library parse, with the
    # collector on, still reserves one.
    monkeypatch.chdir(REPO)
    calls = []
    reserve = core.in_own_chunk

    def counting(func, *args):
        calls.append(func.__name__)
        return reserve(func, *args)

    monkeypatch.setattr(core, "in_own_chunk", counting)
    assert run(["parse", "corpus/vect.p", "corpus/hol.p"]) == EXIT_OK
    assert calls == []
    was_enabled = gc.isenabled()
    try:
        _set_collector(True)
        assert isinstance(parse_problem("thf(a, axiom, $true)."), Problem)
    finally:
        _set_collector(was_enabled)
    assert calls == ["_parse_problem"]


def test_in_process_runs_do_not_keep_their_garbage(corpus_dir):
    # Each run leaves a few garbage cycles, its `argparse` parser among them;
    # a collection after the run must be able to free them.
    argv = ["check", "--deep", str(corpus_dir / "vect.p")]
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert run(argv) == EXIT_OK  # to fill the caches
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                assert run(argv) == EXIT_OK
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1_000_000


@pytest.mark.parametrize("command", ["parse", "check", "check --deep", "stats"])
def test_each_problem_is_freed_before_the_next_file_is_parsed(command, corpus_dir, monkeypatch):
    loaded = []  # a weak reference to each problem, in load order
    alive = []   # per parse: how many earlier problems are still alive
    real_parse_file = cli.parse_file

    def recording_parse_file(path):
        alive.append(sum(ref() is not None for ref in loaded))
        problem = real_parse_file(path)
        loaded.append(weakref.ref(problem))
        return problem

    monkeypatch.setattr(cli, "parse_file", recording_parse_file)
    files = [str(corpus_dir / name) for name in ("list_append.p", "hol.p", "vect.p")]
    assert run([*command.split(), *files]) == EXIT_OK
    assert alive == [0, 0, 0]


# -- check ----------------------------------------------------------------------


def test_check_default_shallow_is_silent(corpus_dir, capsys):
    assert run(["check", str(corpus_dir / "list_append.p")]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""


def test_check_explicit_shallow_flag(corpus_dir, capsys):
    assert run(["check", "--shallow", str(corpus_dir / "list_append.p")]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_check_deep_reports_obligations(corpus_dir, capsys):
    assert run(["check", "--deep", str(corpus_dir / "list_append.p")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ob2 [residual]" in out
    assert "  context: M2: nat, L2: list @ M2, M3: nat, L3: list @ M3" in out
    assert "  goal: " in out
    assert "obligations: 1 residual, 1 discharged" in out


def test_check_deep_verbose_lists_discharged(corpus_dir, capsys):
    assert run(["check", "--deep", "--verbose",
                str(corpus_dir / "list_append.p")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ob1 [discharged by ax1]" in out


def test_check_deep_clean_problem(corpus_dir, capsys):
    assert run(["check", "--deep", str(corpus_dir / "hol.p")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "obligations: 0 residual, 0 discharged\n"


def test_check_shallow_and_deep_conflict(corpus_dir):
    assert run(["check", "--shallow", "--deep",
                str(corpus_dir / "list_append.p")]) == EXIT_PARSE


def test_check_multiple_files(corpus_dir, capsys):
    assert run(["check", str(corpus_dir / "list_append.p"),
                str(corpus_dir / "hol.p")]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_check_deep_multiple_files_labels_output(corpus_dir, capsys):
    first = str(corpus_dir / "list_append.p")
    second = str(corpus_dir / "hol.p")
    assert run(["check", "--deep", first, second]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"% {first}" in out
    assert f"% {second}" in out


def test_check_worst_exit_code_wins(corpus_dir, negative_dir, capsys):
    assert run(["check", str(negative_dir / "neg_arity_missing.p"),
                str(corpus_dir / "hol.p")]) == EXIT_CHECK
    # The negative corpus holds both parse and check errors.
    assert run(["check", *sorted(map(str, negative_dir.glob("*.p")))]) == EXIT_PARSE
    capsys.readouterr()


@pytest.mark.parametrize("name,expected", [
    ("neg_arity_missing.p", EXIT_CHECK),
    ("neg_not_bool.p", EXIT_CHECK),
    ("neg_poly_type.p", EXIT_CHECK),
    ("neg_unknown_symbol.p", EXIT_PARSE),
    ("neg_mixed_binder.p", EXIT_PARSE),
])
def test_check_negative_exit_codes(negative_dir, name, expected, capsys):
    assert run(["check", "--deep", str(negative_dir / name)]) == expected
    err = capsys.readouterr().err
    assert name in err  # diagnostics carry the file name


# -- obligations -------------------------------------------------------------------


def test_obligations_writes_files(corpus_dir, tmp_path, capsys):
    out_dir = tmp_path / "obs"
    assert run(["obligations", str(corpus_dir / "list_append.p"),
                "--out-dir", str(out_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert str(out_dir / "list_append__ob1.p") in out
    assert (out_dir / "list_append__ob1.p").exists()


def test_obligations_all_includes_discharged(corpus_dir, tmp_path):
    out_dir = tmp_path / "obs"
    assert run(["obligations", str(corpus_dir / "list_append.p"),
                "--out-dir", str(out_dir), "--all"]) == EXIT_OK
    assert (out_dir / "list_append__ob1.p").exists()
    assert (out_dir / "list_append__ob2.p").exists()


def test_obligations_none_to_export(corpus_dir, tmp_path, capsys):
    out_dir = tmp_path / "obs"
    assert run(["obligations", str(corpus_dir / "hol.p"),
                "--out-dir", str(out_dir)]) == EXIT_OK
    assert "no obligations to export" in capsys.readouterr().err


def test_obligations_on_an_ill_typed_file_exports_nothing(negative_dir, tmp_path, capsys):
    path = str(negative_dir / "neg_arity_missing.p")
    out_dir = tmp_path / "obs"
    assert run(["obligations", path, "--out-dir", str(out_dir)]) == EXIT_CHECK
    assert capsys.readouterr() == ("", f"{path}:5:19: error: type 'vec' expects 1 argument, got 0\n")
    assert not out_dir.exists()


# -- translate ----------------------------------------------------------------------


def test_translate_refuses_residual_obligations(corpus_dir, capsys):
    assert run(["translate", str(corpus_dir / "list_append.p")]) == EXIT_CHECK
    err = capsys.readouterr().err
    assert "--assume-obligations" in err


def test_translate_with_assumed_obligations(corpus_dir, capsys):
    assert run(["translate", "--assume-obligations",
                str(corpus_dir / "list_append.p")]) == EXIT_OK
    text = capsys.readouterr().out
    reparsed = parse_problem(text)
    assert isinstance(reparsed, Problem)
    assert check_shallow(reparsed) == []
    assert "ob2_assumed" in text


def test_translate_clean_problem_needs_no_flag(corpus_dir, capsys):
    assert run(["translate", str(corpus_dir / "hol.p")]) == EXIT_OK
    text = capsys.readouterr().out
    assert "thf(" in text


def test_translate_to_file(corpus_dir, tmp_path):
    out = tmp_path / "list_append_th0.p"
    assert run(["translate", "--assume-obligations", "-o", str(out),
                str(corpus_dir / "list_append.p")]) == EXIT_OK
    assert "per_nat" in out.read_text()


def test_translate_rejects_ill_typed_input(negative_dir):
    assert run(["translate", str(negative_dir / "neg_arity_missing.p")]) == EXIT_CHECK


# -- stats ------------------------------------------------------------------------------


def test_stats_output(corpus_dir, capsys):
    assert run(["stats", str(corpus_dir / "list_append.p")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "type symbols: 3 (1 with term arguments)" in out
    assert "constants: 6" in out
    assert "max type-argument arity: 1" in out
    assert "axiom-like formulae: 3" in out
    assert re.search(r"^term size: \d+$", out, re.MULTILINE)
    assert "conjecture: list_app_assoc_base" in out
    assert "polymorphic: no" in out


def test_stats_term_size_counts_formula_nodes(corpus_dir, capsys):
    # ax1 alone is ! [N: nat]: ((plus @ zero @ N) = N) -- nine nodes -- so the
    # whole file must weigh in well above that.
    assert run(["stats", str(corpus_dir / "list_append.p")]) == EXIT_OK
    out = capsys.readouterr().out
    size = int(re.search(r"^term size: (\d+)$", out, re.MULTILINE).group(1))
    assert size > 9


def test_stats_multiple_files(corpus_dir, capsys):
    assert run(["stats", str(corpus_dir / "list_append.p"),
                str(corpus_dir / "hol.p")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("file: ") == 2
    assert "\n\nfile: " in out  # blank line between blocks


# -- solve ------------------------------------------------------------------------------


def test_solve_without_prover(corpus_dir, monkeypatch, capsys):
    monkeypatch.delenv(PROVER_ENV_VAR, raising=False)
    assert run(["solve", str(corpus_dir / "list_append.p")]) == EXIT_SYSTEM
    assert "no prover configured" in capsys.readouterr().err


def test_solve_without_prover_reads_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(PROVER_ENV_VAR, raising=False)
    assert run(["solve", str(tmp_path / "absent.p")]) == EXIT_SYSTEM
    assert capsys.readouterr() == (
        "", f"solve: no prover configured; pass --prover or set {PROVER_ENV_VAR}\n")


def test_solve_all_proved(corpus_dir, fake_prover, capsys):
    path = str(corpus_dir / "list_append.p")
    script = fake_prover("echo '% SZS status Theorem'")
    assert run(["solve", "--prover", f"{script} {{file}}", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ob2: Theorem" in out
    assert "list_app_assoc_base: Theorem" in out
    assert f"% SZS status Theorem for {path}" in out


def test_solve_uses_env_prover(corpus_dir, fake_prover, monkeypatch, capsys):
    path = str(corpus_dir / "hol.p")
    script = fake_prover("echo '% SZS status Theorem'")
    monkeypatch.setenv(PROVER_ENV_VAR, f"{script} {{file}}")
    assert run(["solve", path]) == EXIT_OK
    assert f"% SZS status Theorem for {path}" in capsys.readouterr().out


def test_solve_counter_satisfiable_propagates(corpus_dir, fake_prover, capsys):
    path = str(corpus_dir / "hol.p")
    script = fake_prover("echo '% SZS status CounterSatisfiable'")
    assert run(["solve", "--prover", f"{script} {{file}}", path]) == EXIT_CHECK
    out = capsys.readouterr().out
    assert f"% SZS status CounterSatisfiable for {path}" in out


def test_solve_failed_obligation_gives_up(corpus_dir, fake_prover, capsys):
    # Obligation problems lack a conjecture header comment; key on the goal name.
    path = str(corpus_dir / "list_append.p")
    script = fake_prover(
        "grep -q 'thf(ob2, conjecture' \"$1\" "
        "&& echo '% SZS status GaveUp' || echo '% SZS status Theorem'")
    assert run(["solve", "--prover", f"{script} {{file}}", path]) == EXIT_CHECK
    out = capsys.readouterr().out
    assert "ob2: GaveUp" in out
    assert f"% SZS status GaveUp for {path}" in out


def test_solve_prover_error_exit(corpus_dir, capsys):
    path = str(corpus_dir / "hol.p")
    assert run(["solve", "--prover", "/nonexistent/prover {file}",
                path]) == EXIT_SYSTEM
    assert f"% SZS status Error for {path}" in capsys.readouterr().out


def test_solve_parallel_jobs(corpus_dir, fake_prover, capsys):
    path = str(corpus_dir / "list_append.p")
    script = fake_prover("echo '% SZS status Theorem'")
    assert run(["solve", "--prover", f"{script} {{file}}", "--jobs", "2",
                path]) == EXIT_OK
    assert f"% SZS status Theorem for {path}" in capsys.readouterr().out


def test_solve_obligations_only(corpus_dir, fake_prover, capsys):
    path = str(corpus_dir / "list_append.p")
    script = fake_prover("echo '% SZS status Theorem'")
    assert run(["solve", "--obligations-only", "--prover",
                f"{script} {{file}}", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ob2: Theorem" in out
    assert "list_app_assoc_base" not in out
    assert f"% SZS status Theorem for {path}" in out


def test_solve_obligations_only_nothing_residual(corpus_dir, fake_prover, capsys):
    path = str(corpus_dir / "hol.p")
    script = fake_prover("echo '% SZS status Theorem'")
    assert run(["solve", "--obligations-only", "--prover",
                f"{script} {{file}}", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nothing to prove: no residual obligations" in out
    assert f"% SZS status Theorem for {path}" in out


def test_solve_conjecture_only(corpus_dir, fake_prover, capsys):
    path = str(corpus_dir / "list_append.p")
    script = fake_prover("echo '% SZS status Theorem'")
    assert run(["solve", "--conjecture-only", "--prover",
                f"{script} {{file}}", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "list_app_assoc_base: Theorem" in out
    assert "ob2:" not in out
    assert f"% SZS status Theorem for {path}" in out


# (obligation answer, goal answer) -> the exit code and final status of `solve`
# on list_append.p (one residual obligation, ob2, and the conjecture) run
# plain, with --obligations-only and with --conjecture-only.
SOLVE_TABLE = {
    ("Theorem", "Theorem"): [(EXIT_OK, "Theorem"), (EXIT_OK, "Theorem"), (EXIT_OK, "Theorem")],
    ("Theorem", "CounterSatisfiable"): [
        (EXIT_CHECK, "CounterSatisfiable"), (EXIT_OK, "Theorem"),
        (EXIT_CHECK, "CounterSatisfiable")],
    ("GaveUp", "Theorem"): [(EXIT_CHECK, "GaveUp"), (EXIT_CHECK, "GaveUp"), (EXIT_OK, "Theorem")],
    ("GaveUp", "CounterSatisfiable"): [
        (EXIT_CHECK, "GaveUp"), (EXIT_CHECK, "GaveUp"), (EXIT_CHECK, "CounterSatisfiable")],
    ("Error", "CounterSatisfiable"): [
        (EXIT_SYSTEM, "Error"), (EXIT_SYSTEM, "Error"), (EXIT_CHECK, "CounterSatisfiable")],
    ("Theorem", "Timeout"): [(EXIT_CHECK, "Timeout"), (EXIT_OK, "Theorem"), (EXIT_CHECK, "Timeout")],
    ("CounterSatisfiable", "Theorem"): [
        (EXIT_CHECK, "GaveUp"), (EXIT_CHECK, "GaveUp"), (EXIT_OK, "Theorem")],
}


@pytest.mark.parametrize("mode, flags", [
    (0, []), (1, ["--obligations-only"]), (2, ["--conjecture-only"]),
], ids=["plain", "obligations_only", "conjecture_only"])
@pytest.mark.parametrize("answers", list(SOLVE_TABLE), ids="/".join)
def test_solve_status_table(answers, mode, flags, corpus_dir, fake_prover, capsys):
    path = str(corpus_dir / "list_append.p")
    ob, goal = answers
    script = fake_prover(
        "grep -q 'thf(ob2, conjecture' \"$1\" "
        f"&& echo '% SZS status {ob}' || echo '% SZS status {goal}'")
    code, status = SOLVE_TABLE[answers][mode]
    assert run(["solve", *flags, "--prover", f"{script} {{file}}", path]) == code
    assert capsys.readouterr().out.splitlines()[-1] == f"% SZS status {status} for {path}"


def test_solve_only_flags_conflict(corpus_dir):
    assert run(["solve", "--obligations-only", "--conjecture-only",
                str(corpus_dir / "list_append.p")]) == EXIT_PARSE


# -- module entry point -----------------------------------------------------------------


def test_module_invocation(corpus_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "dtf", "check", str(corpus_dir / "hol.p")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == ""


@pytest.mark.parametrize("command, first", [
    (["check", "--deep"], b"ob1 [residual]: "),
    (["parse", "--print"], b"thf(nat_type, type, nat: $tType)."),
    (["translate", "--assume-obligations"], b"thf(nat_type, type, nat: $tType)."),
], ids=["check --deep", "parse --print", "translate --assume-obligations"])
def test_a_reader_that_closes_stdout_early_ends_dtf_quietly(command, first, tmp_path):
    # 8,000 residual obligations print about 900 kB, their problem 220 kB and
    # its translation 680 kB, several times what a pipe holds, so dtf is
    # still writing when the reader goes, as under `dtf check --deep big.p | head -n 1`.
    header = ("thf(nat_type, type, nat: $tType).\nthf(vec_type, type, vec: nat > $tType).\n"
              "thf(n_type, type, n: nat).\nthf(m_type, type, m: nat).\n"
              "thf(v_type, type, v: vec @ n).\nthf(w_type, type, w: vec @ m).\n")
    path = tmp_path / "big.p"
    path.write_text(header + "".join(f"thf(a{i}, axiom, v = w).\n" for i in range(8000)),
                    encoding="utf-8")
    proc = subprocess.Popen([sys.executable, "-m", "dtf", *command, str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(first)
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


# -- located diagnostics for type-level input ------------------------------------------


@pytest.mark.parametrize("decl, column", [
    ("thf(c_type, type, c: !> [X: $tType @ q]: $o).", 29),
    ("thf(a, axiom, ! [X: $tType @ q]: $true).", 21),
], ids=["pi_binder", "forall_binder"])
def test_applied_ttype_is_a_located_parse_error(tmp_path, capsys, decl, column):
    path = tmp_path / "applied.p"
    path.write_text(f"thf(q_type, type, q: $o).\n{decl}\n", encoding="utf-8")
    for argv in (["parse", "--print"], ["check"], ["check", "--deep"]):
        assert run([*argv, str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}:2:{column}: error: $tType takes no arguments\n"


VEC_PRELUDE = ("thf(nat_type, type, nat: $tType).\nthf(vec_type, type, vec: nat > $tType).\n"
               "thf(z_type, type, z: nat).\n")
TH1_APPLICATION = ("thf(nat_type, type, nat: $tType).\n"
                   "thf(id_type, type, id: !> [A: $tType]: (A > A)).\n"
                   "thf(z_type, type, z: nat).\nthf(a, axiom, ((id @ nat @ z) = z)).")


@pytest.mark.parametrize("formula, line, column", [
    ("thf(a, axiom, ! [A: $tType]: $true).", 1, 15),
    ("thf(nat_type, type, nat: $tType).\nthf(a, axiom, $true & (! [F: $tType > $o]: $true)).",
     2, 24),
    ("thf(nat_type, type, nat: $tType).\n"
     "thf(a, conjecture, ? [A: $tType]: ! [X: A]: (X = X)).", 2, 20),
    ("thf(a, axiom, ! [A: $tType]: $true).\nthf(b, conjecture, ? [B: $tType]: $true).", 1, 15),
    # In file order; a `$tType` in a type argument is located at the `^` that binds it.
    (VEC_PRELUDE + "thf(c_decl, type, c: vec @ ((^ [A: $tType]: z) @ z)).", 4, 30),
    (VEC_PRELUDE + "thf(t_decl, type, t: (vec @ ((^ [A: $tType]: z) @ z)) > $tType).", 4, 31),
    ("thf(a, axiom, ! [A: $tType]: $true).\nthf(id_type, type, id: !> [A: $tType]: (A > A)).", 1, 15),
    ("thf(a, conjecture, ! [A: $tType]: $true).\nthf(b, axiom, ? [A: $tType]: $true).", 1, 20),
    # A type symbol passed to a polymorphic constant is a term of the TH1 problem.
    (TH1_APPLICATION, 2, 1),
], ids=["axiom", "axiom_arrow_domain", "conjecture", "axiom_before_conjecture",
        "constant_type_argument", "telescope_type_argument", "axiom_before_declaration",
        "conjecture_before_axiom", "type_application"])
def test_polymorphic_formula_diagnostic_is_located(tmp_path, capsys, formula, line, column):
    path = tmp_path / "poly.p"
    path.write_text(formula + "\n", encoding="utf-8")
    for argv in (["check"], ["check", "--deep"]):
        assert run([*argv, str(path)]) == EXIT_CHECK
        assert capsys.readouterr().err == (
            f"{path}:{line}:{column}: error: polymorphic declarations are not supported\n")


def test_type_application_prints_back_and_is_refused_as_polymorphic(tmp_path, capsys):
    path = tmp_path / "th1.p"
    path.write_text(TH1_APPLICATION + "\n", encoding="utf-8")
    assert run(["parse", "--print", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == TH1_APPLICATION + "\n"
    assert run(["translate", str(path)]) == EXIT_CHECK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:2:1: error: polymorphic declarations are not supported\n"


# -- user symbols spelled like defined ones --------------------------------------------


def test_quoted_dollar_constants_survive_print_and_translate(tmp_path, capsys):
    # '$false' here is a user constant of type $o, so the conjecture is not a
    # theorem; printed bare, it would become the defined $false.
    path = tmp_path / "quoted.p"
    path.write_text("thf(t_decl, type, '$true': $o).\n"
                    "thf(f_decl, type, '$false': $o).\n"
                    "thf(a, axiom, '$true').\n"
                    "thf(g, conjecture, ~ '$false').\n", encoding="utf-8")
    assert run(["parse", "--print", str(path)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed == ("thf(t_decl, type, '$true': $o).\n"
                       "thf(f_decl, type, '$false': $o).\n"
                       "thf(a, axiom, '$true').\n"
                       "thf(g, conjecture, ~ '$false').\n")
    path.write_text(printed, encoding="utf-8")
    assert run(["parse", "--print", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == printed

    assert run(["translate", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == ("thf(t_decl, type, '$true': $o).\n"
                                       "thf('$true_per', axiom, ('$true' = '$true')).\n"
                                       "thf(f_decl, type, '$false': $o).\n"
                                       "thf('$false_per', axiom, ('$false' = '$false')).\n"
                                       "thf(a, axiom, '$true').\n"
                                       "thf(g, conjecture, ~ '$false').\n")


@pytest.mark.parametrize("command", [
    ["parse", "--print"], ["check", "--deep"], ["translate", "--assume-obligations"],
    ["solve"],
], ids=["parse", "check", "translate", "solve"])
def test_declared_quoted_ttype_is_refused(command, fixtures_dir, fake_prover, capsys):
    # A user type named '$tType' used to be the kind itself: `c: '$tType'`
    # translated to `c: $tType`, and the quantifier went over types.
    path = str(fixtures_dir / "quoted_ttype.p")
    if command == ["solve"]:
        command = ["solve", "--prover", f"{fake_prover('echo % SZS status Theorem')} {{file}}"]
    assert run([*command, path]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"{path}:1:15: error: '$tType' is the kind of types and cannot be declared",
        f"{path}:2:22: error: unknown type symbol '$tType'",
        f"{path}:3:21: error: unknown type symbol '$tType'",
    ]


# -- the conjecture's location -----------------------------------------------------------


def test_formula_diagnostics_locate_the_conjecture_as_an_axiom(tmp_path, capsys):
    path = tmp_path / "p.p"
    path.write_text("thf(nat_type, type, nat: $tType).\n"
                    "thf(z_decl, type, z: nat).\n"
                    "thf(ax, axiom, z).\n"
                    "thf(g, conjecture, z).\n", encoding="utf-8")
    assert run(["check", str(path)]) == EXIT_CHECK
    assert capsys.readouterr().err.splitlines() == [
        f"{path}:3:1: error: formula 'ax' must have skeleton $o, got nat",
        f"{path}:4:1: error: formula 'g' must have skeleton $o, got nat",
    ]


# -- solve: task names and empty selections ----------------------------------------------

UNGUARDED = ("thf(nat_type, type, nat: $tType).\n"
             "thf(zero_type, type, zero: nat).\n"
             "thf(plus_type, type, plus: nat > nat > nat).\n"
             "thf(vec_type, type, vec: nat > $tType).\n"
             "thf(f_type, type, f: !> [N: nat]: ((vec @ N) > nat)).\n"
             "thf(v_type, type, v: vec @ (plus @ zero @ zero)).\n"
             "thf(unguarded_use, axiom,\n"
             "    ((f @ zero @ v) = zero) => ((plus @ zero @ zero) = zero)).\n")


def test_solve_renames_a_conjecture_that_shares_an_obligation_label(tmp_path, fake_prover, capsys):
    # The residual obligation is ob1, so the conjecture ob1 goes as ob1_goal.
    path = tmp_path / "clash.p"
    path.write_text(UNGUARDED + "thf(ob1, conjecture, zero = zero).\n", encoding="utf-8")
    seen = tmp_path / "seen"
    seen.mkdir()
    script = fake_prover(f"cp \"$1\" {seen}/\necho '% SZS status Theorem'")
    assert run(["solve", "--prover", f"{script} {{file}}", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert re.findall(r"^(\S+): Theorem", out, re.M) == ["ob1", "ob1_goal"]
    assert sorted(p.name for p in seen.iterdir()) == ["ob1.p", "ob1_goal.p"]
    goal = (seen / "ob1_goal.p").read_text(encoding="utf-8")
    assert "thf(ob1_assumed, axiom," in goal
    assert goal.endswith("thf(ob1, conjecture, per_nat @ zero @ zero).\n")


def test_solve_writes_no_task_file_outside_its_temporary_directory(tmp_path):
    # Task files are named by their escaped labels, so a label with `/`
    # cannot reach out of the run directory under TMPDIR.
    tmp = tmp_path / "outer" / "tmp"
    tmp.mkdir(parents=True)
    path = tmp_path / "escape.p"
    path.write_text("thf(a_type, type, a: $o).\n"
                    "thf('../../escaped', conjecture, a => a).\n", encoding="utf-8")
    src = REPO / "src"
    env = dict(os.environ, TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "dtf", "solve", str(path), "--jobs", "2", "--prover",
         "sh -c 'test -f \"$0\" && echo \"% SZS status Theorem\"' {file}"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert re.fullmatch(r"\.\./\.\./escaped: Theorem \(\d+\.\d\ds\)\n"
                        + re.escape(f"% SZS status Theorem for {path}\n"), proc.stdout)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "escape.p", "outer", "outer/tmp"]
    # Many tasks on two provers leave nothing behind either.
    path = tmp_path / "discharge_1.p"
    path.write_text(load_generator().family("discharge", 1)[0], encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "dtf", "solve", str(path), "--jobs", "2", "--prover", FAKE_PROVER],
        env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.endswith(f"% SZS status Theorem for {path}\n")
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "discharge_1.p", "escape.p", "outer", "outer/tmp"]


def test_solve_conjecture_only_without_a_conjecture(tmp_path, fake_prover, capsys):
    path = tmp_path / "no_goal.p"
    path.write_text(UNGUARDED, encoding="utf-8")
    ran = tmp_path / "ran"
    script = fake_prover(f"touch {ran}\necho '% SZS status Theorem'")
    assert run(["solve", "--conjecture-only", "--prover", f"{script} {{file}}",
                str(path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        f"nothing to prove: no conjecture\n% SZS status Theorem for {path}\n")
    assert not ran.exists()


# -- every bundled input through every subcommand ------------------------------------------

BUNDLED_INPUTS = [*sorted(REPO.glob("corpus/*.p")), *sorted(REPO.glob("corpus/negative/*.p")),
                  *sorted(REPO.glob("tests/fixtures/*.p")), REPO / "tests/fixtures/include/inc_main.p"]


def run_on(argv: list, path) -> tuple:
    """`dtf ARGV PATH` through `cli.run`, checked for what every input must
    give: exit 0, 1 or 2 and no internal error.  Returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([*argv, str(path)])
    assert code in (EXIT_OK, EXIT_CHECK, EXIT_PARSE), (argv, str(path), code, err.getvalue())
    assert "internal error" not in err.getvalue(), (argv, str(path), err.getvalue())
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["parse"], ["parse", "--print"], ["check"], ["check", "--deep"],
    ["check", "--deep", "--verbose"], ["stats"], ["translate"],
    ["translate", "--assume-obligations"], ["obligations", "--all", "--out-dir"], ["solve"],
], ids=" ".join)
def test_every_bundled_input_ends_with_a_documented_exit_code(argv, tmp_path):
    assert len(BUNDLED_INPUTS) == 22
    if argv[0] == "obligations":
        argv = [*argv, str(tmp_path / "obs")]
    elif argv[0] == "solve":
        argv = [*argv, "--prover", FAKE_PROVER]
    for path in BUNDLED_INPUTS:
        run_on(argv, path)


# Each stderr line of `check` names a file, a line and a column.
LOCATED = re.compile(r"[^:]+:[0-9]+:[0-9]+: (error|warning): ")


def test_every_diagnostic_of_check_names_a_line_and_column(tmp_path):
    # A `$tType` bound inside a declaration's type argument is located at the
    # `^` that binds it, and a TH1 problem that passes a type symbol to a
    # polymorphic constant is refused as polymorphic, with exit 1.
    poly = tmp_path / "poly-type-argument.p"
    poly.write_text(VEC_PRELUDE + "thf(c_decl, type, c: vec @ ((^ [A: $tType]: z) @ z)).\n",
                    encoding="utf-8")
    th1 = tmp_path / "th1-type-application.p"
    th1.write_text(TH1_APPLICATION + "\n", encoding="utf-8")
    for path in [*BUNDLED_INPUTS, poly, th1]:
        for argv in (["check"], ["check", "--deep"]):
            code, _, err = run_on(argv, path)
            assert [line for line in err.splitlines() if not LOCATED.match(line)] == [], (argv, path)
            assert path != th1 or code == EXIT_CHECK, argv
