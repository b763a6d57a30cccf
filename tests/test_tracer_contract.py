"""What perfbench/tracing.py reads from `dtf.syntax.tokenize`, which it wraps
as a module attribute: the front end calls it once per annotated formula, so
the lengths of the lists it returns still sum to a file's token count, with
one `eof` a file, while no list holds more than one item's tokens.
"""

from functools import cache

import pytest

from dtf import syntax
from dtf.syntax import Problem, parse_file, tokenize

from genutil import load_generator

generate = load_generator()


@cache
def _text() -> str:
    return generate.family("terms", 7, 0.5)[0]


def _largest_item(tokens: list) -> int:
    """The most tokens from one `.` token to the next, that `.` included."""
    largest = count = 0
    for tok in tokens:
        count += 1
        if tok.kind == ".":
            largest, count = max(largest, count), 0
    return largest


@pytest.fixture
def recorded(monkeypatch) -> list:
    """(length, eof tokens) of each list `syntax.tokenize` returns."""
    calls = []
    original = syntax.tokenize

    def recording(*args, **kwargs):
        tokens = original(*args, **kwargs)
        calls.append((len(tokens), sum(tok.kind == "eof" for tok in tokens)))
        return tokens

    monkeypatch.setattr(syntax, "tokenize", recording)
    return calls


@pytest.mark.parametrize("split", [False, True], ids=["one_file", "with_an_include"])
def test_tokenize_calls_add_up_to_the_token_list(recorded, tmp_path, split):
    text = _text()
    if split:
        # The included file holds the first half of the lines.
        lines = text.splitlines(keepends=True)
        files = {"part.ax": "".join(lines[:len(lines) // 2]),
                 "main.p": "include('part.ax').\n" + "".join(lines[len(lines) // 2:])}
    else:
        files = {"main.p": text}
    for name, content in files.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    problem = parse_file(str(tmp_path / "main.p"))
    assert isinstance(problem, Problem), [d.format() for d in problem]
    token_lists = [tokenize(content) for content in files.values()]
    assert len(recorded) > len(files)
    assert sum(length for length, _ in recorded) == sum(map(len, token_lists))
    assert sum(eofs for _, eofs in recorded) == len(files)
    assert max(length for length, _ in recorded) <= max(map(_largest_item, token_lists)) + 1
