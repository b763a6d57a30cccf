"""The front end's memory: the parser lexes one annotated formula at a time
and elaborates each as soon as it is parsed, so neither a file's token list
nor its surface trees ever exist whole, and each core node keeps one offset.

A token costs about 60 times its share of the input on `terms` (95 with its
line, column and end), so the whole token list would be the largest thing the
front end builds.  The peak of parse_problem, measured with tracemalloc, is
held to bytes per input character, below the size of that list: it is the
elaborated problem plus the largest item's tokens and surface tree.  The
bounds were 0.6 and 0.35 times the list of six-field tokens, and are no looser
than those on any case: they are those shares of that list on `axioms`, where
it is smallest per character.  Keeping every item's surface tree until the
file is parsed peaked near the size of that list, and a `Span` tuple in each
core node left a problem of 0.42 to 0.47 times it.
"""

import tracemalloc
from functools import cache

import pytest

from dtf.syntax import Problem, parse_file, parse_problem

from genutil import load_generator

generate = load_generator()

CASES = [("terms", 0.5), ("terms", 1.0), ("axioms", 1.0)]
# The peak of a parse, and the bytes a parsed problem keeps, per input character.
BOUND = 46
LIVE_BOUND = 27
# Tracing slows the parse about ninefold, so each family is split only once.
SPLIT_CASES = [("terms", 0.5), ("axioms", 1.0)]


def _traced(call):
    """(what call() returns, the bytes it left allocated, its peak in bytes)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current - base, peak - base


@cache
def _text(family: str, scale: float) -> str:
    return generate.family(family, 7, scale)[0]


@pytest.mark.parametrize("family, scale", CASES)
def test_parse_peaks_near_the_token_list(family, scale):
    text = _text(family, scale)
    problem, _, peak = _traced(lambda: parse_problem(text))
    assert isinstance(problem, Problem)
    assert peak <= BOUND * len(text), peak / len(text)


@pytest.mark.parametrize("family, scale", CASES)
def test_a_parsed_problem_keeps_a_third_of_the_token_list(family, scale):
    text = _text(family, scale)
    problem, live, _ = _traced(lambda: parse_problem(text))
    assert isinstance(problem, Problem)
    assert live <= LIVE_BOUND * len(text), live / len(text)


@pytest.mark.parametrize("family, scale", SPLIT_CASES)
def test_parse_with_an_include_peaks_near_the_token_list(family, scale, tmp_path):
    # The included file holds the lines up to the one that halves the text.
    text = _text(family, scale)
    lines = text.splitlines(keepends=True)
    k, length = 0, 0
    while length < len(text) // 2:
        length += len(lines[k])
        k += 1
    (tmp_path / "part.ax").write_text("".join(lines[:k]), encoding="utf-8")
    main = tmp_path / "main.p"
    main.write_text("include('part.ax').\n" + "".join(lines[k:]), encoding="utf-8")
    problem, _, peak = _traced(lambda: parse_file(str(main)))
    assert isinstance(problem, Problem), [d.format() for d in problem]
    assert peak <= BOUND * len(text), peak / len(text)
