"""The lexer: its diagnostics, and agreement with a frozen reference lexer."""

import string
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtf.cli import EXIT_PARSE, run
from dtf.diagnostics import DiagnosticError as _SyntaxError, Span, error
from dtf import syntax
from dtf.syntax import _PUNCT, START, Problem, _tokenize_loop, locate, parse_problem, tokenize

from genutil import load_generator

# -- diagnostics ------------------------------------------------------------------

DECL = "thf(q_type, type, q: $o).\n"

LEXER_ERRORS = [
    # (input, line, column, length, message)
    (DECL + "thf(a, axiom, q).\n  /* never closed\n", 3, 3, 2, "unterminated block comment"),
    (DECL + "thf(a, axiom, 'open\n q).\n", 2, 15, 5, "unterminated quoted atom"),
    (DECL + "thf(a, axiom, 'a\\'", 2, 15, 4, "unterminated quoted atom"),
    (DECL + "thf(a, axiom, $ q).\n", 2, 15, 1, "stray '$'"),
    (DECL + "thf(a, axiom, # q).\n", 2, 15, 1, "unexpected character '#'"),
    (DECL + "/* one\n   two */ thf(a, axiom, q).\n/* three\nfour\n */  thf(b, axiom, \u00a0q).\n",
     6, 20, 1, "unexpected character '\\xa0'"),
    # The unterminated atom runs to the line end, the `\r` of its `\r\n` excluded.
    ("thf(nat_type, type, nat: $tType).\r\nthf(z_type, type, z: nat).\r\n"
     "thf(a, axiom, 'open = z).\r\n", 3, 15, 11, "unterminated quoted atom"),
    ("thf(p_type, type, p: $o > $o).\nthf(a, axiom, p @", 2, 18, 1,
     "expected a term, found 'end of input'"),
]


@pytest.mark.parametrize("text, line, column, length, message", LEXER_ERRORS, ids=[
    "block_comment", "quoted_at_newline", "quoted_at_end", "stray_dollar",
    "unexpected_character", "after_block_comments", "quoted_after_crlf", "end_of_input"])
def test_lexer_error_is_located(tmp_path, capsys, text, line, column, length, message):
    path = tmp_path / "bad.p"
    path.write_text(text, encoding="utf-8")
    assert run(["check", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:{line}:{column}: error: {message}\n"
    [diagnostic] = parse_problem(text, "bad.p")
    assert diagnostic.span == Span(line, column, length)


# -- differential test against the reference lexer --------------------------------
#
# The character-by-character lexer below is kept unchanged as an oracle:
# `tokenize` must give the same tokens and the same diagnostics on every input,
# and `locate` the line, column and length that the oracle counts for each token.


class Token(NamedTuple):
    """The oracle's token, which keeps its position as it counts it."""

    kind: str
    text: str
    line: int
    column: int
    offset: int
    end: int


def _is_lower_start(c: str) -> bool:
    return c.isalpha() and c.islower()


def _is_word_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def oracle_tokenize(text: str, path: str | None = None) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)

    def span_here(length: int = 1) -> Span:
        return Span(line, i - line_start + 1, length)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise _SyntaxError(error("unterminated block comment", span_here(2), path))
            line += text.count("\n", i, end)
            if "\n" in text[i:end]:
                line_start = text.rfind("\n", i, end) + 1
            i = end + 2
            continue
        start = i
        col = i - line_start + 1
        if c == "'":
            i += 1
            value = []
            while i < n and text[i] != "'":
                if text[i] == "\\" and i + 1 < n and text[i + 1] in "\\'":
                    value.append(text[i + 1])
                    i += 2
                elif text[i] == "\n":
                    length = i - start - (text[i - 1] == "\r")  # a "\r\n" ends the line
                    raise _SyntaxError(error("unterminated quoted atom", Span(line, col, length), path))
                else:
                    value.append(text[i])
                    i += 1
            if i >= n:
                raise _SyntaxError(error("unterminated quoted atom", Span(line, col, i - start), path))
            i += 1
            tokens.append(Token("quoted", "".join(value), line, col, start, i))
            continue
        if c == "$":
            j = i + 1
            if j < n and text[j] == "$":
                j += 1
            while j < n and _is_word_char(text[j]):
                j += 1
            if j == i + 1:
                raise _SyntaxError(error("stray '$'", span_here(), path))
            tokens.append(Token("dollar", text[i:j], line, col, i, j))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE+-/"):
                j += 1
            tokens.append(Token("number", text[i:j], line, col, i, j))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and _is_word_char(text[j]):
                j += 1
            kind = "lower" if _is_lower_start(c) else "upper"
            tokens.append(Token(kind, text[i:j], line, col, i, j))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token(p, p, line, col, i, i + len(p)))
                i += len(p)
                break
        else:
            raise _SyntaxError(error(f"unexpected character {c!r}", span_here(), path))
    tokens.append(Token("eof", "", line, n - line_start + 1, n, n))
    return tokens


def _outcome(lex, text: str):
    """(kind, text, line, column, length, offset) of each token, or the diagnostic."""
    try:
        tokens = lex(text, "f.p")
    except _SyntaxError as exc:
        return exc.diagnostic
    if lex is oracle_tokenize:
        return [(t.kind, t.text, t.line, t.column, max(1, t.end - t.offset), t.offset) for t in tokens]
    return [(t.kind, t.text, *locate(text, t.span), t.span) for t in tokens]


PIECES = ([*_PUNCT] + list(string.ascii_letters + string.digits)
          + [" ", "\t", "\r", "\n", "%", "/*", "*/", "/", "*", "'", "\\", "$",
             ".", "e", "E", "+", "-",
             "é", "É", "中", "²", "½", "ǅ", "١", "Ⅷ", "\u00a0", "\f"])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_tokenize_matches_reference(text):
    assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text)


def test_tokenize_matches_reference_on_the_corpus(corpus_dir):
    paths = sorted(corpus_dir.glob("*.p")) + sorted(corpus_dir.glob("negative/*.p"))
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert _outcome(tokenize, text) == _outcome(oracle_tokenize, text)


# -- the split of one item against the loop and the reference ----------------------
#
# With `after`, `tokenize` splits a plain item with one `re.split` and hands
# everything else to `_tokenize_loop`; chained as the parser chains it, it must
# give the loop's windows and the loop's diagnostic on every input.  The split
# and the loop share the class pattern and the kinds of `_scan`, so a fault in
# what they share passes that comparison: the chained windows, flattened, are
# also compared with the reference lexer above.


def _windows(lex, text: str):
    """The windows lex gives from START to `eof`, then the diagnostic if one ends them."""
    windows, last = [], START
    while last.kind != "eof":
        try:
            windows.append(lex(text, "f.p", after=last))
        except _SyntaxError as exc:
            return windows, exc.diagnostic
        last = windows[-1][-1]
    return windows, None


def _chained(text: str, path: str):
    """The chained windows of tokenize, flattened, or the diagnostic that ends them, raised."""
    windows, diagnostic = _windows(tokenize, text)
    if diagnostic is not None:
        raise _SyntaxError(diagnostic)
    return [tok for window in windows for tok in window]


# Pieces with blanks and many item ends between them: about half of the
# windows drawn are split, the others go to the loop.
ITEMS = st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from(["", " ", "\n", "\r\n", ".", ".\r\n"])),
                 max_size=40).map(lambda pairs: "".join(piece + end for piece, end in pairs))


@settings(max_examples=400, deadline=None)
@given(ITEMS)
def test_chained_tokenize_matches_the_loop(text):
    assert _windows(tokenize, text) == _windows(_tokenize_loop, text)


@settings(max_examples=400, deadline=None)
@given(ITEMS)
def test_chained_tokenize_matches_reference(text):
    assert _outcome(_chained, text) == _outcome(oracle_tokenize, text)


REPO = Path(__file__).resolve().parents[1]
FILES = sorted(path.relative_to(REPO).as_posix() for folder in ("corpus", "tests/fixtures")
               for path in (REPO / folder).rglob("*") if path.suffix in (".p", ".ax"))
FAMILIES = ["terms", "axioms", "discharge"]


def _file_text(name: str) -> str:
    if name in FAMILIES:
        return load_generator().family(name, 1)[0]
    return (REPO / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", FILES + FAMILIES)
def test_chained_tokenize_matches_the_loop_on_every_bundled_input(name):
    text = _file_text(name)
    assert _windows(tokenize, text) == _windows(_tokenize_loop, text)


@pytest.mark.parametrize("name", FILES + FAMILIES)
def test_chained_tokenize_matches_reference_on_every_bundled_input(name):
    text = _file_text(name)
    assert _outcome(_chained, text) == _outcome(oracle_tokenize, text)


@pytest.mark.parametrize("family", FAMILIES + [name for name in FILES if name.startswith("corpus/")])
def test_only_the_end_of_input_reaches_the_loop(family, monkeypatch):
    # Every item of the families and of the corpus is split; a change that
    # sent them back to the loop would give the same tokens, only slower.  Two
    # negative files stop in the elaborator, after every item is lexed.
    windows = []

    def loop(*args, **kwargs):
        windows.append(_tokenize_loop(*args, **kwargs))
        return windows[-1]

    monkeypatch.setattr(syntax, "_tokenize_loop", loop)
    assert isinstance(parse_problem(_file_text(family)), Problem) or family.startswith("corpus/negative/")
    assert [[tok.kind for tok in window] for window in windows] == [["eof"]]
