"""Concrete TPTP syntax: lexer, parser, and elaboration into the core AST.

parse_problem accepts annotated `thf` formulae with dependent type
declarations (`!>` telescopes, base types applied to term arguments) and
returns either an elaborated Problem or a list of Diagnostics.
"""

from __future__ import annotations

import gc
import os
import re
from bisect import bisect_right
from functools import lru_cache, partial
from itertools import accumulate, islice, repeat
from operator import itemgetter
from typing import NamedTuple

from . import core
from .core import (
    BOOL,
    And,
    App,
    Axiom,
    BaseApp,
    Bottom,
    Choice,
    Const,
    ConstDecl,
    Eq,
    Exists,
    Forall,
    Implies,
    Lam,
    Name,
    NameKind,
    Not,
    Or,
    Pi,
    Term,
    Theory,
    Top,
    Type,
    TypeDecl,
    Var,
    fresh_name,
    is_type_kind,
    substitute,
)
from .diagnostics import Diagnostic, DiagnosticError, Span, error, warning


# ---------------------------------------------------------------------------
# Lexer

# Each punctuation token, which is also its own kind.
_PUNCT = {p: p for p in [
    "<~>", "<=>", "=>", "<=", "!=", "!>", "?*", "@+", "@-",
    "(", ")", "[", "]", ",", ".", ":", "@", "!", "?", "^",
    "~", "&", "|", "=", ">",
]}

# The blanks and comments before a token, and one pattern per token class.
# `\w` is exactly "alphanumeric or `_`".  A word must also start with a letter.
_BLANKS = r"(?:[ \t\r\n]+|%[^\n]*|/\*[\s\S]*?\*/)*"
_CLASSES = {
    "punct": "|".join(re.escape(p) for p in sorted(_PUNCT, key=len, reverse=True)),
    "word": r"[^\W\d_]\w*",
    "quoted": r"'[^'\\\n]*(?:\\[^\n][^'\\\n]*)*'",
    "dollar": r"\$(?:\$\w*|\w+)",
}
_skip_blanks = re.compile(_BLANKS).match
# The token classes as one group, compiled once: split gives the text between
# tokens and each token, in turn, and builds no match object; `_scan` matches
# one token with it.  A number (`str.isdigit`, wider than `\d`), a lexical
# error and the end of input get no kind from a class: `_scan` alone decides them.
_TOKENS = re.compile("(" + "|".join(f"(?:{pattern})" for pattern in _CLASSES.values()) + ")")
_split_tokens = _TOKENS.split
# The text of a quoted atom: its quotes dropped and `\'` and `\\` unescaped.
_unquote = partial(re.compile(r"^'|'$|\\(['\\])").sub, r"\1")
_new_tuple = tuple.__new__  # builds a named tuple without its __new__ frame


class _NameKinds(dict):
    """The kind of a name, by its first character: None unless a letter, `$`
    or `'`.  Filled in as characters are met."""

    def __missing__(self, c: str):
        kind = self[c] = ("dollar" if c == "$" else "quoted" if c == "'" else
                          None if not c.isalpha() else "lower" if c.islower() else "upper")
        return kind


_name_kind = _NameKinds().__getitem__


class Token(NamedTuple):
    """A token, which is also the surface tree of a name; `span` is its start
    offset in the text, as in every node, and `locate` gives its line and column."""

    kind: str  # lower|upper|dollar|quoted|number|one of _PUNCT|eof
    text: str
    span: int
    height = 1  # as a surface tree


def _found(tok: Token) -> str:
    """How a diagnostic names the token it found; a quoted atom may be empty."""
    return repr("end of input" if tok.kind == "eof" else tok.text)


# A zero-width token before the text, after which the first item is read.
START = Token("start", "", 0)


def tokenize(text: str, path: str | None = None, *, after: Token | None = None) -> list[Token]:
    """The tokens of text, ending in `eof`; a lexical error raises DiagnosticError.

    With `after`, the `.` or START already read, only the tokens after it up
    to and including the next `.` or `eof`: chained from START, one item a call.
    Past the blanks and comments before it, the text up to the next `.` is
    split into its tokens by one `re.split` when only blanks lie between them
    (so no comment does, and the last token is that `.`) and every name starts
    with a letter, `$` or `'`.  Anything else (a number, a lexical error, a
    quoted atom holding a `.`, the end of the text) goes to `_tokenize_loop`,
    which gives the same tokens one by one."""
    if after is not None:
        start = _skip_blanks(text, after.span + len(after.text)).end()
        end = text.find(".", start) + 1
        if end:
            item = text[start:end]
            parts = _split_tokens(item)
            words = parts[1::2]
            kinds = list(map(_PUNCT.get, words, map(_name_kind, map(itemgetter(0), words))))
            if None not in kinds and not "".join(parts[::2]).strip(" \t\r\n"):
                starts = islice(accumulate(map(len, parts), initial=start), 1, None, 2)
                if "'" in item:
                    words = map(_unquote, words)
                return list(map(_new_tuple, repeat(Token), zip(kinds, words, starts)))
    return _tokenize_loop(text, path, after=after)


def _tokenize_loop(text: str, path: str | None = None, *, after: Token | None = None) -> list[Token]:
    """tokenize, one `_scan` a token: the reference for the split, and the
    only source of lexical diagnostics."""
    tokens: list[Token] = []
    end = 0 if after is None else after.span + len(after.text)
    while True:
        kind, start, end = _scan(text, end)
        if kind is None:
            c = text[start]
            message = ("unterminated quoted atom" if c == "'" else
                       "unterminated block comment" if text.startswith("/*", start) else
                       "stray '$'" if c == "$" else f"unexpected character {c!r}")
            raise DiagnosticError(error(message, locate(text, start), path))
        word = text[start:end]
        tokens.append(_new_tuple(Token, (kind, _unquote(word) if kind == "quoted" else word, start)))
        if kind == "eof" or kind == "." and after is not None:
            return tokens


def _scan(text: str, pos: int) -> tuple:
    """The kind, start and end of the first token at or after pos, past the
    blanks and comments; at a lexical error, None and the error's span.  The
    split in `tokenize` shares its class pattern and its kinds; numbers,
    lexical errors and the end of input are decided here only."""
    start = _skip_blanks(text, pos).end()
    m = _TOKENS.match(text, start)
    if m and (kind := _PUNCT.get(m[0]) or _name_kind(m[0][0])):
        return kind, start, m.end()
    c = text[start:start + 1]
    if not c:
        return "eof", start, start
    end = start + 1
    if c.isdigit():
        while end < len(text) and (text[end].isdigit() or text[end] in ".eE+-/"):
            end += 1
        return "number", start, end
    if c == "'":  # to the line end, before the "\r" of a "\r\n"
        stop = text.find("\n", start)
        end = len(text) if stop < 0 else stop - (text[stop - 1] == "\r")
    elif text.startswith("/*", start):
        end += 1
    return None, start, end


@lru_cache(maxsize=8)
def _line_starts(text: str) -> list:
    return [0, *(m.end() for m in re.finditer("\n", text))]


def locate(text: str | None, offset: int | None) -> Span | None:
    """The Span of the token, or of the lexical error, that tokenize finds at
    offset in text; None without both.  Lines count "\\n" only."""
    if text is None or offset is None:
        return None
    starts = _line_starts(text)
    line = bisect_right(starts, offset)
    return Span(line, offset - starts[line - 1] + 1, max(1, _scan(text, offset)[2] - offset))


# ---------------------------------------------------------------------------
# Surface trees: plain slotted classes, since the parser builds each node
# once, nothing compares two of them, and the elaborator only reads them.  A
# name is its Token, of kind lower, upper, dollar or quoted.  `height` is the
# depth that `_too_deep` counts: 1 for a name, one more per operator or
# negation, and k more for a binder with k variables.


class SBin:
    # op: @ (left applied to right) = != & | => <= <=> <~> >
    __slots__ = ("op", "left", "right", "span", "height")

    def __init__(self, op: str, left, right, span: int):
        self.op, self.left, self.right = op, left, right  # four at once would build a tuple
        left_height, right_height = left.height, right.height
        self.span, self.height = span, (left_height if left_height > right_height else right_height) + 1


class SNot:
    __slots__ = ("operand", "span", "height")

    def __init__(self, operand, span: int):
        self.operand, self.span, self.height = operand, span, operand.height + 1


class SBinder:
    # op: ! ? ^ !> @+; variables: tuple[(Token, surface-type), ...]
    __slots__ = ("op", "variables", "body", "span", "height")

    def __init__(self, op: str, variables: tuple, body, span: int):
        self.op, self.variables, self.body = op, variables, body
        self.span, self.height = span, len(variables) + max(body.height, *(ty.height for _, ty in variables))


class AnnotatedFormula:
    """One annotated formula as parsed from the file at `path`.  `body` is its
    surface tree: for role type, the type of `subject`, the declared name's token (else None)."""

    __slots__ = ("name", "role", "subject", "body", "span", "path")

    def __init__(self, name: str, role: str, subject: Token | None, body, span: int, path: str | None):
        self.name, self.role, self.subject, self.body = name, role, subject, body
        self.span, self.path = span, path


class Problem(core.Record):
    """An elaborated problem: the core theory, its conjecture as an Axiom of role
    "conjecture", and how many formulae had each role.  `polymorphic` is the
    located diagnostic that both checkers give a problem that uses `$tType` in
    a type position, else None.  `texts`, left out of equality, maps each
    `Decl.path` to the text that `locate` reads offsets in."""

    # roles holds (role, count) pairs, in order of first appearance.
    _fields = ("roles", "theory", "goal", "polymorphic", "path", "warnings")
    __slots__ = (*_fields, "texts", "__weakref__")

    def __init__(self, roles: tuple = (), theory: Theory = Theory(), goal: Axiom | None = None,
                 polymorphic: Diagnostic | None = None, path: str | None = None, warnings: tuple = (),
                 texts: dict | None = None):
        for name, value in zip(self.__slots__, (roles, theory, goal, polymorphic, path, warnings,
                                                {} if texts is None else texts)):
            object.__setattr__(self, name, value)

    def role_counts(self) -> dict:
        return dict(self.roles)

    def decls(self) -> tuple:
        """The declarations of the theory, then the goal when there is one."""
        return self.theory.decls if self.goal is None else (*self.theory.decls, self.goal)

    @property
    def conjecture(self) -> Term | None:
        return self.goal and self.goal.formula

    @property
    def conjecture_name(self) -> str | None:
        return self.goal and self.goal.label


def _too_deep(tree: object, limit: int) -> object:
    """The first surface node nested deeper than limit, or None.  There is one
    exactly when the tree's `height` is over limit, so the parser calls this
    only then, to locate its error.

    Depth counts the nodes on the path from the root, so a chain such as
    `a & b & c` nests one level per operator, and a binder with k variables
    counts k levels, one per core binder.  The walk keeps its own stack: the
    tree may be too deep to recurse over.
    """
    stack = [(tree, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > limit:
            return node
        if isinstance(node, Token):
            continue
        if isinstance(node, SBin):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif isinstance(node, SBinder):
            depth += len(node.variables)
            stack.extend((ty, depth) for _, ty in node.variables)
            stack.append((node.body, depth))
        elif isinstance(node, SNot):
            stack.append((node.operand, depth + 1))
    return None


# ---------------------------------------------------------------------------
# Parser

# The parser and every later stage recurse over the formula, using up to four
# interpreter frames per level; at this depth every subcommand stays within
# Python's default recursion limit of 1000.  A term the deep check builds, such
# as an index instantiated with an argument, can be about twice as deep as a
# written formula, and the walks over such terms take one frame per level.
MAX_NESTING = 200
# An included file is parsed in place, two frames deeper than the file that
# includes it; a MAX_NESTING-deep formula this deep parses within 880 frames.
MAX_INCLUDE_DEPTH = 32

_ROLES = {"type", "axiom", "lemma", "hypothesis", "definition", "conjecture"}
_BINARY_OPS = {"&", "|", "=>", "<=", "<=>", "<~>", ">"}
_NAME_KINDS = {"lower", "upper", "dollar", "quoted"}


class _LexicalError(Exception):
    """A lexical error, which ends the parse of its file: args[0] is its Diagnostic."""


class _Parser:
    """Holds the tokens of one annotated formula at a time.  Each window of
    tokens ends in `.` or `eof`, and only peek() and next() move past its
    end, since the direct-index hot paths never consume a `.`.  `path` names
    the file in diagnostics and `opened` is the path it was opened as; `seen`
    holds the real paths of the file and of the `level` files including it."""

    def __init__(self, text: str, path: str | None, elab: _Elaborator,
                 opened: str | None, seen: set, level: int = 0):
        self.text, self.path, self.elab = text, path, elab
        self.opened, self.seen, self.level = opened, seen, level
        self.tokens = [START]
        self.pos = 1
        self.depth = 0  # nested parse_unit calls: parentheses, negations, binders

    def peek(self) -> Token:
        try:
            return self.tokens[self.pos]
        except IndexError:  # the window is used up: lex the next item
            try:
                self.tokens = tokenize(self.text, self.path, after=self.tokens[-1])
            except DiagnosticError as exc:
                raise _LexicalError(exc.diagnostic) from None
            self.pos = 0
            return self.tokens[0]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail(f"expected {kind!r}, found {_found(tok)}", tok)
        return self.next()

    def fail(self, message: str, at: object = None) -> DiagnosticError:
        """An error located at a token or surface node, by default the next token."""
        return DiagnosticError(error(message, locate(self.text, (at or self.peek()).span), self.path))

    # -- items ----------------------------------------------------------

    def parse_items(self) -> tuple[list[Diagnostic], list[Diagnostic]]:
        """Parse every item, elaborating each formula once it is parsed and each
        included file in place.  Returns the diagnostics and the warnings, the
        file's own before its includes'; a lexical error is the only diagnostic."""
        diagnostics: list[Diagnostic] = []
        warnings_out: list[Diagnostic] = []
        inner: tuple = ([], [])  # the diagnostics and warnings of the included files
        try:
            while self.peek().kind != "eof":
                try:
                    tok = self.peek()
                    if tok.kind == "lower" and tok.text == "thf":
                        self.elab.run(self.parse_annotated(), self.text)
                    elif tok.kind == "lower" and tok.text == "include":
                        self.parse_include(warnings_out, inner)
                    elif tok.kind == "lower" and tok.text in ("fof", "cnf", "tff", "tcf"):
                        raise self.fail(f"only thf formulae are supported, found {tok.text!r}", tok)
                    else:
                        raise self.fail(f"expected 'thf' or 'include', found {_found(tok)}", tok)
                except DiagnosticError as exc:
                    diagnostics.append(exc.diagnostic)
                    if len(diagnostics) >= 20:
                        while self.next().kind != "eof":
                            pass  # lexed, since a lexical error is still the only diagnostic
                        break
                    self._recover()
        except _LexicalError as exc:
            return [exc.args[0]], []
        return diagnostics + inner[0], warnings_out + inner[1]

    def _recover(self) -> None:
        while self.peek().kind not in (".", "eof"):
            self.next()
        if self.peek().kind == ".":
            self.next()

    def parse_include(self, warnings_out: list[Diagnostic], inner: tuple) -> None:
        """Parse an include directive, then the file it names, in place; that
        file's diagnostics and warnings go to the two lists of inner."""
        kw = self.next()
        self.expect("(")
        arg = self.peek()
        if arg.kind not in ("quoted", "lower"):
            raise self.fail("include expects a quoted file name", arg)
        self.next()
        if self.peek().kind == ",":
            self.next()
            self._skip_balanced((")",), "unterminated include directive")
            warnings_out.append(warning("include selection list ignored", locate(self.text, arg.span),
                                        self.path))
        self.expect(")")
        self.expect(".")
        # Opened as joined, so that `..` after a symbolic link leads where the
        # file system leads, and named relative to the including file's path as
        # typed: normalized when that names the same file.  `seen` holds real
        # paths, so a cycle is caught however a path is spelled.
        target = os.path.join(os.path.dirname(self.opened or ""), arg.text)
        real = os.path.realpath(target)
        name = os.path.normpath(target)
        if os.path.realpath(name) != real:
            name = target
        message = None
        if real in self.seen:
            message = f"circular include of {arg.text!r}"
        elif self.level >= MAX_INCLUDE_DEPTH:
            message = f"include nests deeper than {MAX_INCLUDE_DEPTH} files"
        else:
            try:
                with open(target, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                message = f"cannot read include {arg.text!r}: {exc.strerror or exc}"
            except UnicodeDecodeError:
                at, byte = _undecodable(target)
                message = (f"cannot read include {arg.text!r}: byte {byte:#04x} at line {at.line}, "
                           f"column {at.column} is not UTF-8")
        if message is not None:
            inner[0].append(self.fail(message, kw).diagnostic)
            return
        diagnostics, warns = _Parser(text, name, self.elab, target, self.seen | {real},
                                     self.level + 1).parse_items()
        inner[0].extend(diagnostics)
        inner[1].extend(warns)

    def parse_annotated(self) -> AnnotatedFormula:
        kw = self.next()  # thf
        self.expect("(")
        name_tok = self.peek()
        if name_tok.kind not in ("lower", "quoted", "number", "upper"):
            raise self.fail("expected a formula name", name_tok)
        self.next()
        self.expect(",")
        role_tok = self.expect("lower")
        self.expect(",")
        subject = None
        if role_tok.text == "type":
            subject, body = self.parse_typing()
        else:
            body = self.parse_expr()
        if body.height > MAX_NESTING:
            raise self.fail(f"formula nests deeper than {MAX_NESTING} levels", _too_deep(body, MAX_NESTING))
        # The source and useful-info annotations are checked for balance and skipped.
        for _ in range(2):
            if self.peek().kind != ",":
                break
            self.next()
            self._skip_balanced((",", ")"), "unterminated annotation")
        self.expect(")")
        self.expect(".")
        # Only the `.` is kept, after which the next item is lexed, so the
        # item's tokens are freed before it is elaborated.
        self.tokens, self.pos = self.tokens[-1:], 1
        return AnnotatedFormula(name_tok.text, role_tok.text, subject, body, kw.span, self.path)

    def _skip_balanced(self, stops: tuple, message: str) -> None:
        """Skip tokens up to one of stops outside any brackets."""
        depth = 0
        while not (depth == 0 and self.peek().kind in stops):
            tok = self.next()
            if tok.kind == "eof":
                raise self.fail(message, tok)
            if tok.kind in ("(", "["):
                depth += 1
            elif tok.kind in (")", "]"):
                depth -= 1

    # -- typings ---------------------------------------------------------

    def parse_typing(self) -> tuple:
        """The declared name's token and the surface tree of its type."""
        parens = 0
        while self.peek().kind == "(" and self._looks_like_typing_paren():
            self.next()
            parens += 1
        subject_tok = self.peek()
        if subject_tok.kind not in ("lower", "quoted"):
            raise self.fail("expected the declared symbol name", subject_tok)
        self.next()
        self.expect(":")
        ty = self.parse_expr()  # type expressions reuse the formula grammar
        for _ in range(parens):
            self.expect(")")
        return subject_tok, ty

    def _looks_like_typing_paren(self) -> bool:
        """Whether the `(` at pos opens a typing: a run of `(`, then a name
        and `:`.  The window ends in `.` or `eof`, so the scan stays in it."""
        tokens, pos = self.tokens, self.pos
        while tokens[pos].kind == "(":
            pos += 1
        return tokens[pos].kind in ("lower", "quoted") and tokens[pos + 1].kind == ":"

    # -- formulae ---------------------------------------------------------

    # The four methods below are the parser's hot path: they read
    # `self.tokens[self.pos]` and advance `self.pos` themselves.  A node keeps
    # its token's offset, and a name is its token.

    def parse_expr(self) -> object:
        left = self.parse_unit()
        op_tok = self.tokens[self.pos]
        op = op_tok.kind
        if op not in _BINARY_OPS:
            return left
        # Only `&`, `|` and `>` chain; `>` nests to the right, the rest to the left.
        operands = [left]
        while True:
            self.pos += 1
            operands.append(self.parse_unit())
            if op not in ("&", "|", ">") or self.tokens[self.pos].kind != op:
                break
        self._reject_chain_mixing(op)
        if op == ">":
            result = operands.pop()
            while operands:
                result = SBin(op, operands.pop(), result, op_tok.span)
            return result
        result = left
        for rhs in operands[1:]:
            result = SBin(op, result, rhs, op_tok.span)
        return result

    def _reject_chain_mixing(self, op: str) -> None:
        nxt = self.peek()
        if nxt.kind in _BINARY_OPS:
            raise self.fail(
                f"{nxt.kind!r} after {op!r} needs parentheses", nxt)

    def parse_unit(self) -> object:
        # Every recursive path of the parser passes through here.
        tokens = self.tokens
        tok = tokens[self.pos]
        self.depth += 1
        try:
            if self.depth > MAX_NESTING:
                raise self.fail(f"formula nests deeper than {MAX_NESTING} levels", tok)
            if tok.kind == "~":
                self.pos += 1
                return SNot(self.parse_unit(), tok.span)
            left = self.parse_apply()
            nxt = tokens[self.pos]
            if nxt.kind in ("=", "!="):
                self.pos += 1
                right = self.parse_apply()
                after = tokens[self.pos]
                if after.kind in ("=", "!="):
                    raise self.fail("chained equality needs parentheses", after)
                return SBin(nxt.kind, left, right, nxt.span)
            return left
        finally:
            self.depth -= 1

    def parse_apply(self) -> object:
        result = self.parse_atom()
        tokens = self.tokens
        at = tokens[self.pos]
        while at.kind == "@":
            self.pos += 1
            result = SBin("@", result, self.parse_atom(), at.span)
            at = tokens[self.pos]
        return result

    def parse_atom(self) -> object:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind in _NAME_KINDS:
            self.pos += 1
            return tok
        if kind == "(":
            self.pos += 1
            inner = self.parse_expr()
            close = self.tokens[self.pos]
            if close.kind != ")":
                raise self.fail(f"expected ')', found {_found(close)}", close)
            self.pos += 1
            return inner
        if kind in ("!", "?", "^", "!>", "@+"):
            return self.parse_binder()
        if kind == "@-":
            raise self.fail("description not supported in DTF checker", tok)
        if kind == "?*":
            raise self.fail("unsupported binder '?*'", tok)
        if kind == "number":
            raise self.fail("numbers are not supported", tok)
        raise self.fail(f"expected a term, found {_found(tok)}", tok)

    def parse_binder(self) -> SBinder:
        op_tok = self.next()
        self.expect("[")
        variables: list = []
        seen_term_var = False
        while True:
            var_tok = self.expect("upper")
            self.expect(":")
            ty = self.parse_expr()  # binder types share the declaration-type grammar
            is_type_var = isinstance(ty, Token) and ty.text == "$tType"
            if op_tok.kind == "!>":
                if is_type_var and seen_term_var:
                    raise self.fail("type variables must precede term variables in '!>'",
                                    var_tok)
                if not is_type_var:
                    seen_term_var = True
            variables.append((var_tok, ty))
            if self.peek().kind == ",":
                self.next()
                continue
            break
        self.expect("]")
        self.expect(":")
        body = self.parse_unit()
        if op_tok.kind == "@+" and len(variables) != 1:
            raise self.fail("choice binds exactly one variable", op_tok)
        return SBinder(op_tok.kind, tuple(variables), body, op_tok.span)


# ---------------------------------------------------------------------------
# Elaboration


_CONNECTIVES = {c.op: c for c in (Implies, And, Or)}
_BINDERS = {b.op: b for b in (Forall, Exists, Lam, Choice)}


class _Elaborator:
    """Surface trees to core declarations and formulae.

    The `venv` threaded through the walk maps each surface variable to
    ("var", core Name) or ("tyvar",), and each core binder Name in scope to
    its domain, which `_synth` reads to fill in `Eq.at`.
    """

    def __init__(self):
        self.path: str | None = None  # of the formula being elaborated
        self.texts: dict = {}  # path -> text of each file that holds a formula
        self.roles: dict = {}  # role -> count, in order of first appearance
        self.decls: list = []
        self.symbols: dict = {}
        self.diagnostics: list[Diagnostic] = []
        self.polymorphic: Diagnostic | None = None  # at the first `$tType` in a type position
        self.site: int | None = None  # the term binder whose domains are elaborated, else the formula
        self.conjecture: Axiom | None = None  # of role "conjecture"
        self._used_binders: set = set()
        self._arrow_counter = 0

    def err(self, message: str, span: int | None) -> DiagnosticError:
        return DiagnosticError(error(message, locate(self.texts.get(self.path), span), self.path))

    # -- entry ------------------------------------------------------------

    def run(self, f: AnnotatedFormula, text: str) -> None:
        """Elaborate one formula of text, the file at f.path."""
        self.texts[f.path] = text
        self.roles[f.role] = self.roles.get(f.role, 0) + 1
        try:
            self.elaborate_formula(f)
        except DiagnosticError as exc:
            self.diagnostics.append(exc.diagnostic)

    def elaborate_formula(self, f: AnnotatedFormula) -> None:
        self.path = f.path
        if f.role not in _ROLES:
            raise self.err(f"unsupported role {f.role!r}", f.span)
        self._used_binders = set()
        self._arrow_counter = 0
        self.site = f.span
        if f.role == "type":
            self.elaborate_declaration(f)
            return
        axiom = Axiom(f.name, self.elaborate_term(f.body, {}), f.role, span=f.span, path=f.path)
        if f.role != "conjecture":
            self.decls.append(axiom)
        elif self.conjecture is not None:
            raise self.err("a problem may contain at most one conjecture", f.span)
        else:
            self.conjecture = axiom

    # -- declarations ------------------------------------------------------

    def elaborate_declaration(self, f: AnnotatedFormula) -> None:
        symbol = f.subject.text
        if symbol in self.symbols:
            raise self.err(f"duplicate declaration of {symbol!r}", f.subject.span)
        if symbol == "$tType":  # a user type of that name would be the kind itself
            raise self.err("'$tType' is the kind of types and cannot be declared", f.subject.span)

        binders, spine = self._split_decl_type(f.body)
        tail = spine[-1]
        if isinstance(tail, Token) and tail.kind == "dollar" and tail.text == "$tType":
            venv: dict = {}
            telescope = self._bind(binders, venv)
            for component in spine[:-1]:
                domain = self.elaborate_type(component, venv, allow_pi=True)
                telescope.append((Name(self._invent_binder(venv), NameKind.VAR), domain))
            decl = TypeDecl(Name(symbol, NameKind.TYPE), tuple(telescope), f.name, span=f.span, path=f.path)
        else:
            ty = self.elaborate_type(f.body, {}, allow_pi=True)
            decl = ConstDecl(Name(symbol, NameKind.CONST), ty, f.name, span=f.span, path=f.path)
        self.decls.append(decl)
        self.symbols[symbol] = decl

    def _split_decl_type(self, ty: object) -> tuple[list, list]:
        """Split a declaration type into !>-binders and its arrow spine."""
        binders: list = []
        while isinstance(ty, SBinder) and ty.op == "!>":
            binders.extend(ty.variables)
            ty = ty.body
        spine = [ty]
        while isinstance(spine[-1], SBin) and spine[-1].op == ">":
            last = spine.pop()
            spine.append(last.left)
            spine.append(last.right)
        return binders, spine

    def _bind(self, variables, venv: dict, rename=None) -> list:
        """Bind the (Token, surface type) pairs of a binder in venv, each under
        rename(its written name), or that name itself; returns their (Name,
        domain) pairs in order.  Each domain is elaborated before its rename."""
        bound: list = []
        for var, sty in variables:
            domain = self.elaborate_type(sty, venv)
            name = Name(rename(var.text) if rename else var.text, NameKind.VAR)
            venv[var.text] = ("tyvar",) if is_type_kind(domain) else ("var", name)
            venv[name] = domain
            bound.append((name, domain))
        return bound

    def _invent_binder(self, venv: dict) -> str:
        """The next `X<k>_` not taken by a variable in scope or a binder of the formula."""
        while True:
            self._arrow_counter += 1
            text = f"X{self._arrow_counter}_"
            if text not in venv and Name(text, NameKind.VAR) not in venv \
                    and text not in self._used_binders:
                return text

    # -- types -------------------------------------------------------------

    def elaborate_type(self, sty: object, venv: dict, allow_pi: bool = False) -> Type:
        if isinstance(sty, Token):
            if sty.kind == "dollar":
                if sty.text == "$o":
                    return core.BoolType(sty.span)
                if sty.text == "$tType":
                    if self.polymorphic is None:
                        self.polymorphic = self.err("polymorphic declarations are not supported",
                                                    self.site).diagnostic
                    return BaseApp(Name("$tType", NameKind.TYPE), (), sty.span)
                raise self.err(f"unsupported $-symbol {sty.text!r} in type position", sty.span)
            if sty.kind == "upper":
                entry = venv.get(sty.text)
                if entry and entry[0] == "tyvar":
                    return BaseApp(Name(sty.text, NameKind.VAR), (), sty.span)
                if entry:
                    raise self.err(f"term variable {sty.text!r} used as a type", sty.span)
                raise self.err(f"unbound type variable {sty.text!r}", sty.span)
            decl = self.symbols.get(sty.text)
            if isinstance(decl, TypeDecl):
                return BaseApp(decl.name, (), sty.span)
            if decl is not None:
                raise self.err(f"{sty.text!r} is not a type symbol", sty.span)
            raise self.err(f"unknown type symbol {sty.text!r}", sty.span)
        if isinstance(sty, SBin) and sty.op == "@":
            spine: list = []
            head = sty
            while isinstance(head, SBin) and head.op == "@":
                spine.append(head.right)
                head = head.left
            spine.reverse()
            if not isinstance(head, Token):
                raise self.err("type application needs a type-symbol head", sty.span)
            head_ty = self.elaborate_type(head, venv)
            if is_type_kind(head_ty):
                raise self.err("$tType takes no arguments", head.span)
            if not isinstance(head_ty, BaseApp):
                raise self.err("only base types take term arguments", sty.span)
            args = tuple(self.elaborate_term(a, venv) for a in spine)
            return BaseApp(head_ty.head, args, sty.span)
        if isinstance(sty, SBin) and sty.op == ">":
            name = Name(self._invent_binder(venv), NameKind.VAR)
            domain = self.elaborate_type(sty.left, venv)
            codomain = self.elaborate_type(sty.right, venv, allow_pi=False)
            return Pi(name, domain, codomain, sty.span)
        if isinstance(sty, SBinder) and sty.op == "!>":
            if not allow_pi:
                raise self.err("'!>' is only allowed prenex in declaration types", sty.span)
            venv = dict(venv)
            bound = self._bind(sty.variables, venv)
            result = self.elaborate_type(sty.body, venv, allow_pi=True)
            for name, domain in reversed(bound):
                result = Pi(name, domain, result, sty.span)
            return result
        if isinstance(sty, SBinder):
            raise self.err(f"binder {sty.op!r} cannot appear in a type", sty.span)
        raise self.err("expected a type", getattr(sty, "span", None))

    # -- terms ---------------------------------------------------------------

    def elaborate_term(self, s: object, venv: dict) -> Term:
        if isinstance(s, Token):
            return self._elaborate_name(s, venv)
        if isinstance(s, SBin):
            if s.op == "@":  # the commonest node
                return App(self.elaborate_term(s.left, venv), self.elaborate_term(s.right, venv), s.span)
            op = s.op
            if op == ">":
                raise self.err("arrow cannot appear in a formula", s.span)
            left = self.elaborate_term(s.left, venv)
            right = self.elaborate_term(s.right, venv)
            if op in _CONNECTIVES:
                return _CONNECTIVES[op](left, right, s.span)
            if op == "<=":
                return Implies(right, left, s.span)
            # =, !=, and equivalence, which is equality at $o: <=> and <~>.
            at = self._synth(left, venv) if op == "=" or op == "!=" else BOOL
            eq = Eq(left, right, at, s.span)
            return eq if op == "=" or op == "<=>" else Not(eq, s.span)
        if isinstance(s, SNot):
            return Not(self.elaborate_term(s.operand, venv), s.span)
        if isinstance(s, SBinder):
            return self._elaborate_binder(s, venv)
        raise self.err("expected a formula", getattr(s, "span", None))

    def _elaborate_name(self, s: Token, venv: dict) -> Term:
        if s.kind == "dollar":
            if s.text == "$true":
                return Top(s.span)
            if s.text == "$false":
                return Bottom(s.span)
            if s.text in ("$o", "$tType"):
                raise self.err(f"{s.text} cannot appear in a formula", s.span)
            raise self.err(f"unsupported $-symbol {s.text!r}", s.span)
        if s.kind == "upper":
            entry = venv.get(s.text)
            if entry is None:
                raise self.err(f"unbound variable {s.text!r}", s.span)
            if entry[0] == "tyvar":
                raise self.err(f"type variable {s.text!r} used as a term", s.span)
            return Var(entry[1], s.span)
        decl = self.symbols.get(s.text)
        if isinstance(decl, ConstDecl):
            return Const(decl.name, s.span)
        if isinstance(decl, TypeDecl):
            if self.polymorphic:  # a type argument of a polymorphic constant
                return Const(decl.name, s.span)
            raise self.err(f"type symbol {s.text!r} used as a term", s.span)
        raise self.err(f"unknown symbol {s.text!r}", s.span)

    def _elaborate_binder(self, s: SBinder, venv: dict) -> Term:
        if s.op == "!>":
            raise self.err("'!>' is only allowed in declaration types", s.span)
        node = _BINDERS[s.op]
        venv = dict(venv)
        site, self.site = self.site, s.span
        bound = self._bind(s.variables, venv, self._fresh_binder)
        self.site = site
        body = self.elaborate_term(s.body, venv)
        for name, domain in reversed(bound):
            body = node(name, domain, body, s.span)
        return body

    def _fresh_binder(self, text: str) -> str:
        resolved = fresh_name(text, self._used_binders)
        self._used_binders.add(resolved)
        return resolved

    # -- equation annotations -------------------------------------------------

    def _synth(self, t: Term, env: dict) -> Type | None:
        """Structural type synthesis; None when the skeleton is broken."""
        if isinstance(t, Var):
            return env.get(t.name)
        if isinstance(t, Const):
            decl = self.symbols.get(t.name.text)
            return decl.ty if isinstance(decl, ConstDecl) else None
        if isinstance(t, App):
            fun_ty = self._synth(t.fun, env)
            if isinstance(fun_ty, Pi):
                return substitute(fun_ty.codomain, fun_ty.binder, t.arg)
            return None
        if isinstance(t, Lam):
            env2 = dict(env)
            env2[t.binder] = t.domain
            body_ty = self._synth(t.body, env2)
            return Pi(t.binder, t.domain, body_ty) if body_ty is not None else None
        if isinstance(t, Choice):
            return t.domain
        return BOOL  # every other term former is a proposition


# ---------------------------------------------------------------------------
# Entry points


def parse_problem(text: str, path: str | None = None):
    """Parse and elaborate a DTF problem, with the cyclic collector off.

    With the collector on, the parse goes through `core.in_own_chunk`; with
    it off, as inside every `cli.run`, it runs in the caller's chunk.

    Returns a Problem on success and a non-empty list of Diagnostics on any
    lex, parse, or elaboration error.
    """
    if gc.isenabled():
        return core.in_own_chunk(_parse_problem, text, path)
    return _parse_problem(text, path)


def _parse_problem(text: str, path: str | None):
    elab = _Elaborator()
    seen = {os.path.realpath(path)} if path else set()
    diagnostics, warns = _Parser(text, path, elab, path, seen).parse_items()
    if diagnostics or elab.diagnostics:
        return diagnostics or elab.diagnostics
    return Problem(tuple(elab.roles.items()), Theory(tuple(elab.decls)), elab.conjecture,
                   elab.polymorphic, path, tuple(warns), elab.texts)


def _undecodable(path: str) -> tuple[Span, int]:
    """The span and the value of the first byte of a file that is not UTF-8.

    The file is read again with each such byte escaped to a lone surrogate,
    so the span counts lines and columns as the tokenizer does."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        text = handle.read()
    pos = re.search("[\udc80-\udcff]", text).start()
    return locate(text, pos), ord(text[pos]) - 0xDC00


def parse_file(path: str):
    """Read a .p/.ax file (UTF-8) and parse it; see parse_problem.  A file
    that cannot be read or decoded is one `cannot read` diagnostic."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return [error(f"cannot read {path!r}: {exc.strerror or exc}", None, path)]
    except UnicodeDecodeError:
        at, byte = _undecodable(path)
        return [error(f"cannot read {path!r}: byte {byte:#04x} is not UTF-8", at, path)]
    return parse_problem(text, path)
