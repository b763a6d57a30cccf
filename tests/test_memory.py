"""The front end's memory: the parser lexes one annotated formula at a time
and elaborates each as soon as it is parsed, so neither a file's token list
nor its surface trees ever exist whole, and each core node keeps one offset.

A token costs about 95 times its share of the input, so the whole token list
would be the largest thing the front end builds.  The peak of parse_problem,
measured with tracemalloc, is held to a share of the traced size of that list:
it is the elaborated problem plus the largest item's tokens and surface tree.
Keeping every item's surface tree until the file is parsed peaks at up to 0.96
times that size, and a `Span` tuple in each core node leaves a problem of
0.42 to 0.47 times it.
"""

import tracemalloc
from functools import cache

import pytest

from dtf.syntax import Problem, parse_file, parse_problem, tokenize

from genutil import load_generator

generate = load_generator()

CASES = [("terms", 0.5), ("terms", 1.0), ("axioms", 1.0)]
BOUND = 0.6
# The bytes a parsed problem keeps, over the token list.
LIVE_BOUND = 0.35
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
def _text_and_token_list_size(family: str, scale: float) -> tuple:
    text = generate.family(family, 7, scale)[0]
    return text, _traced(lambda: tokenize(text))[1]


@pytest.mark.parametrize("family, scale", CASES)
def test_parse_peaks_near_the_token_list(family, scale):
    text, tokens = _text_and_token_list_size(family, scale)
    problem, _, peak = _traced(lambda: parse_problem(text))
    assert isinstance(problem, Problem)
    assert peak <= BOUND * tokens, peak / tokens


@pytest.mark.parametrize("family, scale", CASES)
def test_a_parsed_problem_keeps_a_third_of_the_token_list(family, scale):
    text, tokens = _text_and_token_list_size(family, scale)
    problem, live, _ = _traced(lambda: parse_problem(text))
    assert isinstance(problem, Problem)
    assert live <= LIVE_BOUND * tokens, live / tokens


@pytest.mark.parametrize("family, scale", SPLIT_CASES)
def test_parse_with_an_include_peaks_near_the_token_list(family, scale, tmp_path):
    # The included file holds the lines up to the one that halves the text.
    text, tokens = _text_and_token_list_size(family, scale)
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
    assert peak <= BOUND * tokens, peak / tokens
