"""Pins on the front end: its output byte for byte, and no cyclic collection while parsing."""

import gc
import hashlib
from pathlib import Path

import pytest

from dtf.core import Axiom, BaseApp, Binder, Const, Pi, TypeDecl, Var, children
from dtf.printer import print_problem
from dtf.syntax import Problem, locate, parse_problem

from genutil import load_generator

REPO = Path(__file__).resolve().parents[1]
generate = load_generator()

# sha256 of `_front_end_digest`, recorded with the frozen-dataclass tokens,
# spans and surface nodes that the front end used to build.
DIGESTS = {
    "choice.p": "1ea0dea25deeb8b5acc3b060f8b15ed5e0f05c323dc778f809ff08a9491639b8",
    "dep_impl.p": "4ae32bab7612af7dabe6fb5f4be8365a1303644164fbce8acd6101b11c44aea3",
    "dep_impl_rev.p": "c4ae2eebdd03b9321dcdbd4d13d70a2054c24b7dbcda3cd626cecb02aff7cdd7",
    # Recorded once `<=>` became equality at $o, one `Eq` node.
    "desugar.p": "cc0abf62f9c97741561c68139e3c83ca40a6b479a0749f545a239830bf26ffd4",
    "hol.p": "685bb5bbf57ca0f53cb23af9fdbef7b66f79c0070969f7f97ee11b61b110448e",
    "list_append.p": "fdcadeac7497c0cbd994aa9d31ccd242de94d3888be4426517158d13171313aa",
    "roles.p": "ca0322b45368d41718bcac659777f1bd94981609285caa6dee6b9d730631e568",
    "vect.p": "6bee53dfc7d93d488dc4d1d56baa95e8064775c2d6703c40b7330ace74b926e1",
    "axioms": "87e3fcced928be90c1dc68b220f6f8b3c2dca62bceee82752362bd928bf3f6c0",
    "terms": "fc297b65888a66c0732c73d2635dee4bf2c6eb979466d1e53a8d5b28c20f66ed",
    "discharge": "bae06d7b4be3cb873f848e960d069c4c3288c5b2cd4e54763b9c463ef47f52a5",
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


@pytest.fixture
def collections():
    """The generation of each cyclic collection started while the test runs."""
    started: list = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(count)
    try:
        yield started
    finally:
        gc.callbacks.remove(count)


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


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()
