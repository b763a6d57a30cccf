"""Pins on the front end: its output byte for byte, and no cyclic collection while parsing."""

import gc
import hashlib
from pathlib import Path

import pytest

from dtf.core import Axiom, BaseApp, Binder, Const, Pi, TypeDecl, Var, children
from dtf.printer import print_problem
from dtf.syntax import Problem, locate, parse_problem

from conftest import _set_collector
from genutil import load_generator

REPO = Path(__file__).resolve().parents[1]
generate = load_generator()

# sha256 of `_front_end_digest`, recorded with the frozen-dataclass tokens,
# spans and surface nodes that the front end used to build.  Re-recorded where
# a `>` chain of three or more types gives each of its `Pi` nodes the span of
# its own `>`, not of the first: no other node and no printed byte moved.
DIGESTS = {
    "choice.p": "1ea0dea25deeb8b5acc3b060f8b15ed5e0f05c323dc778f809ff08a9491639b8",
    "dep_impl.p": "6d6bfe8c14653e8993bea71fb56cecab4a31900a94e5be0f90632a082496a030",
    "dep_impl_rev.p": "645942a0a947c92e8979a67017aed3e27af76ea6077009e36f64012c3177f33e",
    # Recorded once `<=>` became equality at $o, one `Eq` node.
    "desugar.p": "cc0abf62f9c97741561c68139e3c83ca40a6b479a0749f545a239830bf26ffd4",
    "hol.p": "685bb5bbf57ca0f53cb23af9fdbef7b66f79c0070969f7f97ee11b61b110448e",
    "list_append.p": "0e59330e1be5a21d497ca085b23066af960777604c142fd00426ef0dac368589",
    "roles.p": "ca0322b45368d41718bcac659777f1bd94981609285caa6dee6b9d730631e568",
    "vect.p": "441e3fd00582cafd47fa442a534ea0a7ad08cbffecbca51aa0924d9f0a09a443",
    "axioms": "2b4de9dead7e8d125fc73ea4a2b659d16887ae068ff1fde58b0ab41637610fba",
    "terms": "8894630c79d2d65745698004cc020c660401327b23d3410a1904bd67d2f2c400",
    "discharge": "38d30db62d9e9d87acca73a13daf500661e79f77b1f71c31a754711b920644d8",
}


def _location(text: str, offset) -> tuple | None:
    span = locate(text, offset)
    return None if span is None else (span.line, span.column, span.length)


def _name_text(node) -> str | None:
    if isinstance(node, (Var, Const)):
        return node.name.text
    if isinstance(node, (Binder, Pi)):
        return node.binder.text
    if isinstance(node, BaseApp):
        return node.head.text
    return None


def _walk(node, out: list, text: str) -> None:
    out.append((type(node).__name__, _name_text(node), _location(text, node.span)))
    for child in children(node):
        _walk(child, out, text)


def _front_end_digest(problem: Problem) -> str:
    """Pre-order (class name, name text, span) of every elaborated node, then the printed problem."""
    out: list = []
    text = problem.texts[problem.path]
    for decl in problem.theory.decls:
        if isinstance(decl, Axiom):
            out.append(("Axiom", decl.label, _location(text, decl.span)))
            _walk(decl.formula, out, text)
        elif isinstance(decl, TypeDecl):
            out.append(("TypeDecl", decl.name.text, _location(text, decl.span)))
            for name, ty in decl.telescope:
                out.append(("binder", name.text, None))
                _walk(ty, out, text)
        else:
            out.append(("ConstDecl", decl.name.text, _location(text, decl.span)))
            _walk(decl.ty, out, text)
    if problem.conjecture is not None:
        _walk(problem.conjecture, out, text)
    digest = hashlib.sha256(repr(out).encode())
    digest.update(print_problem(problem).encode())
    return digest.hexdigest()


def _source(key: str) -> tuple:
    if key.endswith(".p"):
        path = REPO / "corpus" / key
        return path.read_text(encoding="utf-8"), str(path)
    return generate.family(key, 1)[0], None


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_front_end_output_is_pinned(key):
    problem = parse_problem(*_source(key))
    assert isinstance(problem, Problem)
    assert _front_end_digest(problem) == DIGESTS[key]


def test_parsing_runs_no_collection(collections):
    text, _ = generate.family("terms", 1)
    gc.collect()
    collections.clear()
    assert isinstance(parse_problem(text), Problem)
    assert collections == []


@pytest.mark.parametrize("text, message", [
    ("thf(a, axiom, $true).", None),
    ("thf(a, axiom, 'unterminated).", "unterminated quoted atom"),
    ("thf(a, axiom, ).", "expected a term, found ')'"),
    ("thf(a, axiom, missing).", "unknown symbol 'missing'"),
], ids=["problem", "lexer", "parser", "elaboration"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_parsing_restores_the_collector_state(text, message, enabled):
    was_enabled = gc.isenabled()
    try:
        _set_collector(enabled)
        result = parse_problem(text)
        assert gc.isenabled() is enabled
        if message is None:
            assert isinstance(result, Problem)
        else:
            assert [d.message for d in result] == [message]
    finally:
        _set_collector(was_enabled)
