"""Deeply nested input ends in a located diagnostic, never a traceback."""

import contextlib
import io
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dtf import cli
from dtf.cli import EXIT_CHECK, EXIT_OK, EXIT_PARSE, EXIT_SYSTEM, run
from dtf.core import in_own_chunk
from dtf.diagnostics import DiagnosticError
from dtf.printer import print_problem
from dtf.syntax import (MAX_INCLUDE_DEPTH, MAX_NESTING, Problem, _Elaborator, _Parser, _too_deep,
                        parse_problem)

from genutil import gen_formula_problem, gen_problem, load_generator

REPO = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))

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


def _nest(op: str, d: int) -> str:
    # p op (p op ... (p op p)): d - 1 operators, each one level.
    return f"p {op} (" * (d - 2) + f"p {op} p" + ")" * (d - 2)


# Each shape maps a depth d >= 3 to a formula nested exactly d levels deep.
SHAPES = {
    "conjunctions": lambda d: " & ".join(["p"] * d),
    "parentheses": lambda d: "(" * (d - 1) + "p" + ")" * (d - 1),
    "negations": lambda d: "~ " * (d - 1) + "p",
    "binder variables": lambda d: "! [" + ", ".join(f"X{i}: $o" for i in range(d - 1)) + "]: p",
    "implications": lambda d: _implications(d - 2),
    "equivalences": lambda d: _nest("<=>", d),
    "non-equivalences": lambda d: _nest("<~>", d),
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


class _Expired(BaseException):
    """Not an Exception, so that `cli.run` does not report it as its own."""


@contextlib.contextmanager
def _at_most(seconds: float):
    """Stop the block with _Expired once it has run for seconds."""
    def expire(signum, frame):
        raise _Expired(f"ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("shape", SHAPES)
def test_every_subcommand_at_and_past_the_limit(shape, tmp_path, fake_prover, capsys):
    prover = fake_prover("echo '% SZS status Theorem'") + " {file}"
    at_limit = tmp_path / "at_limit.p"
    at_limit.write_text(HEADER + f"thf(deep, axiom, {SHAPES[shape](MAX_NESTING)}).\n")
    too_deep = tmp_path / "too_deep.p"
    too_deep.write_text(HEADER + f"thf(deep, axiom, {SHAPES[shape](MAX_NESTING + 1)}).\n")

    for name, argv in _commands(str(at_limit), str(tmp_path / "obs"), prover).items():
        # A `<=>` nest written out as `(l => r) & (r => l)` ran for ever.
        with _at_most(20):
            assert run(argv) == EXIT_OK, name
        assert capsys.readouterr().err in ("", "no obligations to export\n"), name

    for name, argv in _commands(str(too_deep), str(tmp_path / "obs2"), prover).items():
        assert run(argv) == EXIT_PARSE, name
        err = capsys.readouterr().err
        assert err.startswith(f"{too_deep}:8:"), name
        assert f"error: formula nests deeper than {MAX_NESTING} levels" in err, name


def _succ(d: int, x: str) -> str:
    return "(s @ " * d + x + ")" * d


def _built(d: int, arg: str, premises: int = 0) -> str:
    """A file whose line-12 axiom gives arg to `mk: !> [N: nat]: vec @ s^d(N)`
    under `premises` premises; the deep check builds the index s^d(arg), which
    is deeper than any written formula."""
    return (HEADER + "thf(zero_type, type, zero: nat).\n"
            "thf(s_type, type, s: nat > nat).\n"
            f"thf(mk_type, type, mk: !> [N: nat]: vec @ {_succ(d, 'N')}).\n"
            "thf(q_type, type, q: vec @ zero > $o).\n"
            f"thf(built, axiom, {'(p => ' * premises}q @ (mk @ {arg}){')' * premises}).\n")


def _twice(k: int) -> str:
    """`twice` nested k times around the successor, applied to zero: its
    normal form is s^(2^k)(zero)."""
    twice = "(^ [G: nat > nat]: ^ [X: nat]: (G @ (G @ X)))"
    f = "(^ [Y: nat]: (s @ Y))"
    for _ in range(k):
        f = f"({twice} @ {f})"
    return f"({f} @ zero)"


# Terms the deep check builds, about twice as deep as anything written.
BUILT = {
    "composed index term": lambda: _built(MAX_NESTING - 3, _succ(MAX_NESTING - 3, "zero")),
    "under premises": lambda: _built(MAX_NESTING - 4, _succ(40, "zero"), 150),
    "lambda-built normal form": lambda: _built(0, _twice(9)),  # 512 deep
}


@pytest.mark.parametrize("shape", BUILT)
def test_every_subcommand_on_the_terms_the_deep_check_builds(shape, tmp_path, fake_prover, capsys):
    prover = fake_prover("echo '% SZS status Theorem'") + " {file}"
    path = tmp_path / "built.p"
    path.write_text(BUILT[shape]())
    for name, argv in _commands(str(path), str(tmp_path / "obs"), prover).items():
        with _at_most(20):
            assert run(argv) == EXIT_OK, name
        assert capsys.readouterr().err in ("", "no obligations to export\n"), name


@pytest.mark.parametrize("shape", BUILT)
def test_the_terms_the_deep_check_builds_from_the_command_line(shape, tmp_path, fake_prover):
    prover = fake_prover("echo '% SZS status Theorem'") + " {file}"
    (tmp_path / "built.p").write_text(BUILT[shape]())
    for name, argv in _commands("built.p", "obs", prover).items():
        if name in ("check --deep", "translate", "obligations", "solve"):
            proc = _dtf(tmp_path, *argv)
            assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), name


def test_a_composed_index_term_past_the_limit_is_refused(tmp_path, fake_prover, capsys):
    prover = fake_prover("echo '% SZS status Theorem'") + " {file}"
    d = MAX_NESTING - 2
    path = tmp_path / "built.p"
    path.write_text(_built(d, _succ(d, "zero")))
    for name, argv in _commands(str(path), str(tmp_path / "obs"), prover).items():
        assert run(argv) == EXIT_PARSE, name
        assert capsys.readouterr().err == "".join(  # the declaration and the axiom
            f"{path}:{at}: error: formula nests deeper than {MAX_NESTING} levels\n"
            for at in ("10:1033", "12:1019")), name


def test_a_lambda_built_normal_form_past_the_budget_is_located(tmp_path, capsys):
    path = tmp_path / "built.p"
    path.write_text(_built(0, _twice(10)))  # 1024 deep
    assert run(["check", "--deep", str(path)]) == EXIT_CHECK
    assert capsys.readouterr().err == f"{path}:12:27: error: normalization budget exceeded\n"


def test_limit_counts_declaration_types():
    arrows = " > ".join(["$o"] * (MAX_NESTING + 1))
    result = parse_problem(f"thf(c_type, type, c: {arrows}).\n")
    assert not isinstance(result, Problem)
    assert "nests deeper" in result[0].message


# Each node of a `>` chain is located at its own operator, so a chain past
# the limit is located at the operator one level past it, not at its first.
@pytest.mark.parametrize("line, nth", [
    ("thf(f_type, type, f: " + " > ".join(["nat"] * (MAX_NESTING + 2)) + ").", MAX_NESTING + 1),
    ("thf(a, axiom, ! [X: " + " > ".join(["$o"] * (MAX_NESTING + 1)) + "]: p).", MAX_NESTING),
], ids=["declaration type", "binder type"])
def test_a_chain_past_the_limit_is_located_at_the_operator_past_it(line, nth, tmp_path, capsys):
    path = tmp_path / "chain.p"
    path.write_text(HEADER + line + "\n")
    assert run(["check", str(path)]) == EXIT_PARSE
    column = [match.start() for match in re.finditer(">", line)][nth - 1] + 1
    assert capsys.readouterr().err == (
        f"{path}:8:{column}: error: formula nests deeper than {MAX_NESTING} levels\n")


def test_parser_recovers_after_a_too_deep_formula():
    text = ("thf(p_type, type, p: $o).\n"
            f"thf(a, axiom, {SHAPES['parentheses'](MAX_NESTING + 1)}).\n"
            f"thf(b, axiom, {SHAPES['parentheses'](MAX_NESTING + 1)}).\n")
    result = parse_problem(text)
    assert [d.span.line for d in result] == [2, 3]


def _at_depth(depth: int, call):
    """call(), from depth more frames of about 120 bytes each."""
    return call() if depth == 0 else _at_depth(depth - 1, call)


def test_the_page_faults_of_a_deep_walk_do_not_depend_on_the_callers_depth(tmp_path):
    # CPython 3.11 and later keep frames in 16 KiB chunks and unmap a chunk when
    # the frame at its base returns, so a walk faults each time it swings back
    # across a chunk boundary.  `cli.run` runs in a chunk of its own, so where
    # its walks cross no longer depends on how deep its caller is.  Called
    # from 0 to 130 more frames, more than one chunk, `check --deep` on this
    # nest read 26 to 55 faults a call (at most 25 apart, in 24 runs on 3.11.7,
    # 3.12.1 and 3.13.0); without its own chunk, 92 to 729 (618 to 629 apart).
    resource = pytest.importorskip("resource")
    nest = tmp_path / "nest.p"
    nest.write_text(HEADER + f"thf(deep, axiom, {SHAPES['implications'](150)}).\n")

    def faults() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def call() -> int:
        # Each call prints into a new buffer, so that the text does not grow the heap.
        with contextlib.redirect_stdout(io.StringIO()):
            before = faults()
            code = run(["check", "--deep", str(nest)])
            return faults() - before if code == EXIT_OK else -1

    call()  # the first run maps what every later one reuses
    counts = [_at_depth(depth, call) for depth in range(131)]
    assert min(counts) >= 0, counts
    # A crossing costs the same faults again at the same depth; a heap that
    # happened to grow during one call does not.
    least = min(counts)
    counts = [min(c, _at_depth(depth, call)) if c - least > 64 else c
              for depth, c in enumerate(counts)]
    assert max(counts) - least <= 64, counts


def test_only_3_11_and_later_reserve_a_chunk_for_a_run():
    # 3.10 keeps frames on the heap, and would keep a reserved frame in its free list.
    assert (in_own_chunk.__code__.co_stacksize >= 64 * 1024) is (sys.version_info >= (3, 11))


def test_unexpected_exception_is_one_line_and_exit_3(corpus_dir, monkeypatch, capsys):
    def boom(problem):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.shallow, "check_shallow", boom)
    assert run(["check", str(corpus_dir / "hol.p")]) == EXIT_SYSTEM
    assert capsys.readouterr().err == "dtf: internal error: RuntimeError: boom\n"


def _include_chain(directory: Path, depth: int, innermost: str) -> None:
    """main.p includes f1.ax, which includes f2.ax, ... down to f<depth>.ax,
    which holds innermost; main.p declares the symbols first."""
    (directory / "main.p").write_text(HEADER + "include('f1.ax').\n")
    for i in range(1, depth):
        (directory / f"f{i}.ax").write_text(f"include('f{i + 1}.ax').\n")
    (directory / f"f{depth}.ax").write_text(innermost)


def _dtf(directory: Path, *argv: str) -> subprocess.CompletedProcess:
    # A new interpreter, so that the stack is as deep as from the command line.
    return subprocess.run([sys.executable, "-m", "dtf", *argv], cwd=directory, env=ENV,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("shape", ["parentheses", "implications"])
def test_a_formula_at_the_nesting_limit_runs_at_the_include_limit(shape, tmp_path):
    _include_chain(tmp_path, MAX_INCLUDE_DEPTH, f"thf(deep, axiom, {SHAPES[shape](MAX_NESTING)}).\n")
    for argv in (["parse"], ["parse", "--print"], ["check", "--deep"],
                 ["translate", "--assume-obligations"], ["stats"]):
        proc = _dtf(tmp_path, *argv, "main.p")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), argv


def test_an_include_past_the_limit_is_located_at_the_directive(tmp_path):
    # The chain goes on to f<limit + 1>.ax, which would hold the formula.
    _include_chain(tmp_path, MAX_INCLUDE_DEPTH + 1, "thf(a, axiom, p).\n")
    for argv in (["check"], ["parse"]):
        proc = _dtf(tmp_path, *argv, "main.p")
        assert proc.returncode == EXIT_PARSE, argv
        assert proc.stderr == (f"f{MAX_INCLUDE_DEPTH}.ax:1:1: error: "
                               f"include nests deeper than {MAX_INCLUDE_DEPTH} files\n"), argv


# The height a surface node records as the parser builds it stands in for
# `_too_deep`'s walk: a tree is over a limit exactly when the walk finds a node.


def _assert_height_agrees(tree) -> None:
    height = tree.height
    for limit in {1, height - 1, height, height + 1, MAX_NESTING, MAX_NESTING + 1} - {0}:
        assert (height > limit) == (_too_deep(tree, limit) is not None), (height, limit)


def _surface(formula: str, typing: bool = False):
    """The surface tree of a formula, or of the type in a typing such as
    `c: $o > $o`, parsed without the height check of `parse_annotated`."""
    parser = _Parser(formula + ".", None, _Elaborator(), None, set())
    parser.peek()  # lexes the item
    return parser.parse_typing()[1] if typing else parser.parse_expr()


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize("shape", SHAPES)
def test_the_recorded_height_agrees_with_the_walk_on_every_shape(shape, depth):
    try:
        tree = _surface(SHAPES[shape](depth))
    except DiagnosticError as exc:
        # The parser's own depth counter refuses parentheses and negations
        # one level past the limit, before any height is read.
        assert depth > MAX_NESTING and "nests deeper" in exc.diagnostic.message
        return
    assert tree.height == (1 if shape == "parentheses" else depth)  # parentheses add no node
    _assert_height_agrees(tree)


@pytest.mark.parametrize("typing", [
    "c: " + " > ".join(["$o"] * MAX_NESTING),
    "c: " + " > ".join(["$o"] * (MAX_NESTING + 1)),
    "c: " + "(" * 50 + "$o > $o" + ")" * 50,
    "c: !> [X: nat, Y: vec @ X]: (vec @ X > $o > $o)",
    "vec: nat > nat > $tType",
], ids=["arrows at the limit", "arrows past the limit", "parenthesized arrow", "prenex", "type constructor"])
def test_the_recorded_height_agrees_with_the_walk_on_declaration_types(typing):
    _assert_height_agrees(_surface(typing, typing=True))


@pytest.mark.parametrize("formula", [
    "! [" + ", ".join(f"X{i}: $o" for i in range(MAX_NESTING)) + "]: p",
    "! [" + ", ".join(f"X{i}: $o > $o > $o" for i in range(60)) + "]: p",
    "^ [X: " + " > ".join(["$o"] * 150) + "]: X",  # the variable's type is the deepest part
    "! [X: $o]: ? [Y: $o, Z: $o]: ^ [W: $o]: (X & Y & Z & W & p & q)",
    "@+ [X: $o]: (X = (^ [Y: $o, Z: $o]: Y) @ X @ X)",
], ids=["variables at the limit", "arrow-typed variables", "deepest in a type", "nested", "choice"])
def test_the_recorded_height_agrees_with_the_walk_on_binders(formula):
    _assert_height_agrees(_surface(formula))


def _chain(op_and_operands) -> str:
    op, operands = op_and_operands
    return "(" + f" {op} ".join(operands) + ")"


_MIXED = st.recursive(
    st.sampled_from(["p", "q", "f", "X", "$true"]),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["@", "&", "|"]), st.lists(sub, min_size=2, max_size=5)).map(_chain),
        st.tuples(st.sampled_from(["=>", "=", "!=", "<=>"]), st.lists(sub, min_size=2, max_size=2)).map(_chain),
        sub.map(lambda t: f"(~ {t})"),
        st.tuples(st.integers(1, 3), sub).map(
            lambda kt: "(! [" + ", ".join(f"Y{i}: $o" for i in range(kt[0])) + f"]: {kt[1]})"),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_MIXED)
def test_the_recorded_height_agrees_with_the_walk_on_mixed_chains(formula):
    _assert_height_agrees(_surface(formula))


class _Trees:
    """Stands in for the elaborator: keeps each annotated formula's surface tree."""

    def __init__(self):
        self.trees: list = []

    def run(self, formula, text: str) -> None:
        self.trees.append(formula.body)


def _assert_heights_agree_in(text: str) -> None:
    trees = _Trees()
    diagnostics, _ = _Parser(text, None, trees, None, set()).parse_items()
    assert not diagnostics and trees.trees
    for tree in trees.trees:
        _assert_height_agrees(tree)


@pytest.mark.parametrize("seed", range(20))
def test_the_recorded_height_agrees_with_the_walk_on_generated_problems(seed):
    for problem in (gen_problem(seed), gen_formula_problem(seed)):
        _assert_heights_agree_in(print_problem(problem))


@pytest.mark.parametrize("family", ["axioms", "terms", "discharge"])
def test_the_recorded_height_agrees_with_the_walk_on_benchmark_families(family):
    _assert_heights_agree_in(load_generator().family(family, 1, 0.3)[0])
