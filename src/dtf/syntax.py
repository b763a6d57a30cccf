"""Concrete TPTP syntax: lexer, parser, and elaboration into the core AST.

parse_problem accepts annotated `thf` formulae with dependent type
declarations (`!>` telescopes, base types applied to term arguments) and
returns either an elaborated Problem or a list of Diagnostics.
"""

from __future__ import annotations

import gc
import os
import re
from collections import Counter
from dataclasses import dataclass
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

_PUNCT = [
    "<~>", "<=>", "=>", "<=", "!=", "!>", "?*", "@+", "@-",
    "(", ")", "[", "]", ",", ".", ":", "@", "!", "?", "^",
    "~", "&", "|", "=", ">",
]

# One match per token: the blanks and comments before it, then one alternative
# per token class.  `\w` is exactly "alphanumeric or `_`".  A word must also
# start with a letter.  The empty `other` alternative hands a token that starts
# with a digit (`str.isdigit`, wider than `\d`), every lexical error and the end
# of input to the hand-written branches of `tokenize`.
_TOKEN = re.compile(r"""
    (?: [ \t\r\n]+ | %[^\n]* | /\*[\s\S]*?\*/ )*
    (?: (?P<punct> """ + "|".join(re.escape(p) for p in sorted(_PUNCT, key=len, reverse=True)) + r""" )
      | (?P<word> [^\W\d_]\w* )
      | (?P<quoted> '[^'\\\n]*(?:\\[^\n][^'\\\n]*)*' )
      | (?P<dollar> \$(?:\$\w*|\w+) )
      | (?P<other>)
    )
""", re.X)
_ESCAPE = re.compile(r"\\(['\\])")
_new_tuple = tuple.__new__  # builds a named tuple without its __new__ frame


class Token(NamedTuple):
    kind: str  # lower|upper|dollar|quoted|number|one of _PUNCT|eof
    text: str
    line: int
    column: int
    offset: int
    end: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.column, max(1, self.end - self.offset))


def _found(tok: Token) -> str:
    """How a diagnostic names the token it found; a quoted atom may be empty."""
    return repr("end of input" if tok.kind == "eof" else tok.text)


_SyntaxError = DiagnosticError  # the name tests/test_lexer.py imports


def tokenize(text: str, path: str | None = None) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while True:
        m = _TOKEN.match(text, pos)
        kind = m.lastgroup
        start = m.start(kind)
        if start != pos:
            newlines = text.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, start) + 1
            # Rebound only here, so that a token's offset is the same int
            # object as the end of the token just before it.
            pos = start
        end = m.end()
        if kind == "punct":
            token = text[pos:end]
            tokens.append(_new_tuple(Token, (token, token, line, pos - line_start + 1, pos, end)))
        elif kind == "word" and (c := text[pos]).isalpha():
            tokens.append(_new_tuple(Token, ("lower" if c.islower() else "upper", text[pos:end],
                               line, pos - line_start + 1, pos, end)))
        elif kind == "dollar":
            tokens.append(_new_tuple(Token, ("dollar", text[pos:end], line, pos - line_start + 1, pos, end)))
        elif kind == "quoted":
            tokens.append(_new_tuple(Token, ("quoted", _ESCAPE.sub(r"\1", text[pos + 1:end - 1]),
                               line, pos - line_start + 1, pos, end)))
        elif pos == n:
            break
        else:
            col = pos - line_start + 1
            c = text[pos]
            if c.isdigit():
                end = pos
                while end < n and (text[end].isdigit() or text[end] in ".eE+-/"):
                    end += 1
                tokens.append(Token("number", text[pos:end], line, col, pos, end))
            elif c == "'":
                stop = text.find("\n", pos)
                length = (n if stop < 0 else stop) - pos
                raise DiagnosticError(error("unterminated quoted atom", Span(line, col, length), path))
            elif text.startswith("/*", pos):
                raise DiagnosticError(error("unterminated block comment", Span(line, col, 2), path))
            elif c == "$":
                raise DiagnosticError(error("stray '$'", Span(line, col, 1), path))
            else:
                raise DiagnosticError(error(f"unexpected character {c!r}", Span(line, col, 1), path))
        pos = end
    tokens.append(Token("eof", "", line, n - line_start + 1, n, n))
    return tokens


# ---------------------------------------------------------------------------
# Surface trees


@dataclass(slots=True, eq=False)
class SName:
    category: str  # lower|upper|dollar|quoted
    text: str
    span: Span


@dataclass(slots=True, eq=False)
class SApp:
    fun: object
    arg: object
    span: Span


@dataclass(slots=True, eq=False)
class SBin:
    op: str  # & | => <= <=> <~> >
    left: object
    right: object
    span: Span


@dataclass(slots=True, eq=False)
class SNot:
    operand: object
    span: Span


@dataclass(slots=True, eq=False)
class SEq:
    left: object
    right: object
    negated: bool
    span: Span


@dataclass(slots=True, eq=False)
class SBinder:
    op: str  # ! ? ^ !> @+
    variables: tuple  # tuple[(SName, surface-type), ...]
    body: object
    span: Span


@dataclass(slots=True, eq=False)
class STyping:
    subject: SName
    ty: object
    span: Span


@dataclass(slots=True, eq=False)
class AnnotatedFormula:
    name: str
    role: str
    body: object  # surface tree (STyping for role type)
    span: Span | None = None
    path: str | None = None  # of the file it was read from


@dataclass(slots=True, eq=False)
class _Include:
    path: str
    span: Span


@dataclass(frozen=True)
class Problem:
    """An elaborated problem: the core theory, its conjecture as an Axiom of role
    "conjecture", and how many formulae had each role."""

    roles: tuple = ()  # (role, count) pairs, in order of first appearance
    theory: Theory = Theory()
    goal: Axiom | None = None
    polymorphic: bool = False
    path: str | None = None
    warnings: tuple = ()

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
    """The first surface node nested deeper than limit, or None.

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
        if isinstance(node, SName):
            continue
        if isinstance(node, SApp):
            stack += [(node.fun, depth + 1), (node.arg, depth + 1)]
        elif isinstance(node, (SBin, SEq)):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif isinstance(node, SBinder):
            depth += len(node.variables)
            stack.extend((ty, depth) for _, ty in node.variables)
            stack.append((node.body, depth))
        elif isinstance(node, SNot):
            stack.append((node.operand, depth + 1))
        elif isinstance(node, STyping):
            stack.append((node.ty, depth))
    return None


# ---------------------------------------------------------------------------
# Parser

# The parser and every later stage recurse over the formula, using up to four
# interpreter frames per level; at this depth every subcommand stays within
# Python's default recursion limit of 1000.
MAX_NESTING = 200

_ROLES = {"type", "axiom", "lemma", "hypothesis", "definition", "conjecture"}
_BINARY_OPS = {"&", "|", "=>", "<=", "<=>", "<~>", ">"}
_NAME_KINDS = {"lower", "upper", "dollar", "quoted"}


class _Parser:
    def __init__(self, tokens: list[Token], path: str | None):
        self.tokens = tokens
        self.pos = 0
        self.path = path
        self.depth = 0  # nested parse_unit calls: parentheses, negations, binders

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail(f"expected {kind!r}, found {_found(tok)}", tok)
        return self.next()

    def fail(self, message: str, at: object = None) -> DiagnosticError:
        """An error located at a token or a surface node, by default the next token."""
        return DiagnosticError(error(message, (at or self.peek()).span, self.path))

    # -- items ----------------------------------------------------------

    def parse_items(self) -> tuple[list, list[Diagnostic], list[Diagnostic]]:
        items: list = []
        diagnostics: list[Diagnostic] = []
        warnings_out: list[Diagnostic] = []
        while self.peek().kind != "eof":
            try:
                tok = self.peek()
                if tok.kind == "lower" and tok.text == "thf":
                    items.append(self.parse_annotated())
                elif tok.kind == "lower" and tok.text == "include":
                    inc, warns = self.parse_include()
                    items.append(inc)
                    warnings_out.extend(warns)
                elif tok.kind == "lower" and tok.text in ("fof", "cnf", "tff", "tcf"):
                    raise self.fail(f"only thf formulae are supported, found {tok.text!r}", tok)
                else:
                    raise self.fail(f"expected 'thf' or 'include', found {_found(tok)}", tok)
            except DiagnosticError as exc:
                diagnostics.append(exc.diagnostic)
                if len(diagnostics) >= 20:
                    break
                self._recover()
        return items, diagnostics, warnings_out

    def _recover(self) -> None:
        while self.peek().kind not in (".", "eof"):
            self.next()
        if self.peek().kind == ".":
            self.next()

    def parse_include(self) -> tuple[_Include, list[Diagnostic]]:
        warns: list[Diagnostic] = []
        kw = self.next()
        self.expect("(")
        target = self.peek()
        if target.kind not in ("quoted", "lower"):
            raise self.fail("include expects a quoted file name", target)
        self.next()
        if self.peek().kind == ",":
            self.next()
            self._skip_balanced((")",), "unterminated include directive")
            warns.append(warning("include selection list ignored", target.span, self.path))
        self.expect(")")
        self.expect(".")
        return _Include(target.text, kw.span), warns

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
        if role_tok.text == "type":
            body: object = self.parse_typing()
        else:
            body = self.parse_expr()
        too_deep = _too_deep(body, MAX_NESTING)
        if too_deep is not None:
            raise self.fail(f"formula nests deeper than {MAX_NESTING} levels", too_deep)
        # The source and useful-info annotations are checked for balance and skipped.
        if self.peek().kind == ",":
            self.next()
            self._skip_balanced((",", ")"), "unterminated annotation")
            if self.peek().kind == ",":
                self.next()
                self._skip_balanced((",", ")"), "unterminated annotation")
        self.expect(")")
        self.expect(".")
        return AnnotatedFormula(name_tok.text, role_tok.text, body, kw.span, self.path)

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

    def parse_typing(self) -> STyping:
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
        return STyping(SName("lower", subject_tok.text, subject_tok.span), ty, subject_tok.span)

    def _looks_like_typing_paren(self) -> bool:
        tok = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        after = self.tokens[self.pos + 2] if self.pos + 2 < len(self.tokens) else None
        return bool(tok and tok.kind in ("lower", "quoted") and after and after.kind == ":")

    # -- formulae ---------------------------------------------------------

    # The four methods below are the parser's hot path: they read
    # `self.tokens[self.pos]` and advance `self.pos` themselves, and build
    # spans as `tuple.__new__(Span, ...)`, equal to `Token.span`.

    def parse_expr(self) -> object:
        left = self.parse_unit()
        op_tok = self.tokens[self.pos]
        op = op_tok.kind
        if op not in _BINARY_OPS:
            return left
        if op in ("&", "|"):
            operands = [left]
            while self.tokens[self.pos].kind == op:
                self.pos += 1
                operands.append(self.parse_unit())
            self._reject_chain_mixing(op)
            result = operands[0]
            for rhs in operands[1:]:
                result = SBin(op, result, rhs, op_tok.span)
            return result
        if op == ">":
            operands = [left]
            while self.tokens[self.pos].kind == ">":
                self.pos += 1
                operands.append(self.parse_unit())
            self._reject_chain_mixing(op)
            result = operands[-1]
            for lhs in reversed(operands[:-1]):
                result = SBin(">", lhs, result, op_tok.span)
            return result
        self.pos += 1
        right = self.parse_unit()
        self._reject_chain_mixing(op)
        return SBin(op, left, right, op_tok.span)

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
                return SEq(left, right, nxt.kind == "!=", nxt.span)
            return left
        finally:
            self.depth -= 1

    def parse_apply(self) -> object:
        result = self.parse_atom()
        tokens = self.tokens
        at = tokens[self.pos]
        while at.kind == "@":
            self.pos += 1
            result = SApp(result, self.parse_atom(), _new_tuple(Span, (at.line, at.column, 1)))
            at = tokens[self.pos]
        return result

    def parse_atom(self) -> object:
        tok = self.tokens[self.pos]
        kind, text, line, column, offset, end = tok
        if kind in _NAME_KINDS:
            self.pos += 1
            return SName(kind, text, _new_tuple(Span, (line, column, end - offset)))
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
            ty = self.parse_var_type()
            is_type_var = isinstance(ty, SName) and ty.text == "$tType"
            if op_tok.kind == "!>":
                if is_type_var and seen_term_var:
                    raise self.fail("type variables must precede term variables in '!>'",
                                    var_tok)
                if not is_type_var:
                    seen_term_var = True
            variables.append((SName("upper", var_tok.text, var_tok.span), ty))
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

    def parse_var_type(self) -> object:
        operand = self.parse_unit()
        if self.peek().kind != ">":
            return operand
        operands = [operand]
        while self.peek().kind == ">":
            at = self.next()
            operands.append(self.parse_unit())
        result = operands[-1]
        for lhs in reversed(operands[:-1]):
            result = SBin(">", lhs, result, at.span)
        return result


# ---------------------------------------------------------------------------
# Elaboration


_AXIOM_ROLES = ("axiom", "lemma", "hypothesis", "definition")
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
        self.decls: list = []
        self.symbols: dict = {}
        self.diagnostics: list[Diagnostic] = []
        self.polymorphic = False
        self.conjecture: Axiom | None = None  # of role "conjecture"
        self._used_binders: set = set()
        self._arrow_counter = 0

    def err(self, message: str, span: Span | None) -> DiagnosticError:
        return DiagnosticError(error(message, span, self.path))

    # -- entry ------------------------------------------------------------

    def run(self, formulae: list[AnnotatedFormula]) -> None:
        for f in formulae:
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
        typing = f.body
        assert isinstance(typing, STyping)
        symbol = typing.subject.text
        if symbol in self.symbols:
            raise self.err(f"duplicate declaration of {symbol!r}", typing.span)
        if symbol == "$tType":  # a user type of that name would be the kind itself
            raise self.err("'$tType' is the kind of types and cannot be declared", typing.subject.span)

        binders, spine = self._split_decl_type(typing.ty)
        tail = spine[-1]
        if isinstance(tail, SName) and tail.category == "dollar" and tail.text == "$tType":
            venv: dict = {}
            telescope = self._bind_written(binders, venv)
            for component in spine[:-1]:
                domain = self.elaborate_type(component, venv, allow_pi=True)
                telescope.append((Name(self._invent_binder(venv), NameKind.VAR), domain))
            decl = TypeDecl(Name(symbol, NameKind.TYPE), tuple(telescope), f.name, span=f.span, path=f.path)
        else:
            ty = self.elaborate_type(typing.ty, {}, allow_pi=True)
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

    def _bind_written(self, variables, venv: dict) -> list:
        """Bind the (SName, surface type) pairs of a `!>` in venv under their
        written names; returns their (Name, domain) pairs in order."""
        bound: list = []
        for var, sty in variables:
            domain = self.elaborate_type(sty, venv)
            name = Name(var.text, NameKind.VAR)
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
        if isinstance(sty, SName):
            if sty.category == "dollar":
                if sty.text == "$o":
                    return core.BoolType(span=sty.span)
                if sty.text == "$tType":
                    self.polymorphic = True
                    return BaseApp(Name("$tType", NameKind.TYPE), span=sty.span)
                raise self.err(f"unsupported $-symbol {sty.text!r} in type position", sty.span)
            if sty.category == "upper":
                entry = venv.get(sty.text)
                if entry and entry[0] == "tyvar":
                    return BaseApp(Name(sty.text, NameKind.VAR), span=sty.span)
                if entry:
                    raise self.err(f"term variable {sty.text!r} used as a type", sty.span)
                raise self.err(f"unbound type variable {sty.text!r}", sty.span)
            decl = self.symbols.get(sty.text)
            if isinstance(decl, TypeDecl):
                return BaseApp(decl.name, span=sty.span)
            if decl is not None:
                raise self.err(f"{sty.text!r} is not a type symbol", sty.span)
            raise self.err(f"unknown type symbol {sty.text!r}", sty.span)
        if isinstance(sty, SApp):
            spine: list = []
            head = sty
            while isinstance(head, SApp):
                spine.append(head.arg)
                head = head.fun
            spine.reverse()
            if not isinstance(head, SName):
                raise self.err("type application needs a type-symbol head", sty.span)
            head_ty = self.elaborate_type(head, venv)
            if is_type_kind(head_ty):
                raise self.err("$tType takes no arguments", head.span)
            if not isinstance(head_ty, BaseApp):
                raise self.err("only base types take term arguments", sty.span)
            args = tuple(self.elaborate_term(a, venv) for a in spine)
            return BaseApp(head_ty.head, args, span=sty.span)
        if isinstance(sty, SBin) and sty.op == ">":
            name = Name(self._invent_binder(venv), NameKind.VAR)
            domain = self.elaborate_type(sty.left, venv)
            codomain = self.elaborate_type(sty.right, venv, allow_pi=False)
            return Pi(name, domain, codomain, span=sty.span)
        if isinstance(sty, SBinder) and sty.op == "!>":
            if not allow_pi:
                raise self.err("'!>' is only allowed prenex in declaration types", sty.span)
            venv = dict(venv)
            bound = self._bind_written(sty.variables, venv)
            result = self.elaborate_type(sty.body, venv, allow_pi=True)
            for name, domain in reversed(bound):
                result = Pi(name, domain, result, span=sty.span)
            return result
        if isinstance(sty, SBinder):
            raise self.err(f"binder {sty.op!r} cannot appear in a type", sty.span)
        raise self.err("expected a type", getattr(sty, "span", None))

    # -- terms ---------------------------------------------------------------

    def elaborate_term(self, s: object, venv: dict) -> Term:
        if isinstance(s, SName):
            return self._elaborate_name(s, venv)
        if isinstance(s, SApp):
            head = s
            while isinstance(head, SApp):
                head = head.fun
            if isinstance(head, SName) and head.category in ("lower", "quoted") \
                    and isinstance(self.symbols.get(head.text), TypeDecl):
                raise self.err(f"type symbol {head.text!r} used as a term", head.span)
            return App(self.elaborate_term(s.fun, venv), self.elaborate_term(s.arg, venv), span=s.span)
        if isinstance(s, SNot):
            return Not(self.elaborate_term(s.operand, venv), span=s.span)
        if isinstance(s, SEq):
            left = self.elaborate_term(s.left, venv)
            right = self.elaborate_term(s.right, venv)
            eq = Eq(left, right, self._synth(left, venv), span=s.span)
            return Not(eq, span=s.span) if s.negated else eq
        if isinstance(s, SBin):
            if s.op == ">":
                raise self.err("arrow cannot appear in a formula", s.span)
            left = self.elaborate_term(s.left, venv)
            right = self.elaborate_term(s.right, venv)
            if s.op in _CONNECTIVES:
                return _CONNECTIVES[s.op](left, right, span=s.span)
            if s.op == "<=":
                return Implies(right, left, span=s.span)
            if s.op == "<=>":
                return And(Implies(left, right, span=s.span), Implies(right, left, span=s.span), span=s.span)
            if s.op == "<~>":
                both = And(Implies(left, right, span=s.span), Implies(right, left, span=s.span), span=s.span)
                return Not(both, span=s.span)
            raise self.err(f"unsupported connective {s.op!r}", s.span)
        if isinstance(s, SBinder):
            return self._elaborate_binder(s, venv)
        raise self.err("expected a formula", getattr(s, "span", None))

    def _elaborate_name(self, s: SName, venv: dict) -> Term:
        if s.category == "dollar":
            if s.text == "$true":
                return Top(span=s.span)
            if s.text == "$false":
                return Bottom(span=s.span)
            if s.text in ("$o", "$tType"):
                raise self.err(f"{s.text} cannot appear in a formula", s.span)
            raise self.err(f"unsupported $-symbol {s.text!r}", s.span)
        if s.category == "upper":
            entry = venv.get(s.text)
            if entry is None:
                raise self.err(f"unbound variable {s.text!r}", s.span)
            if entry[0] == "tyvar":
                raise self.err(f"type variable {s.text!r} used as a term", s.span)
            return Var(entry[1], span=s.span)
        decl = self.symbols.get(s.text)
        if isinstance(decl, ConstDecl):
            return Const(decl.name, span=s.span)
        if isinstance(decl, TypeDecl):
            raise self.err(f"type symbol {s.text!r} used as a term", s.span)
        raise self.err(f"unknown symbol {s.text!r}", s.span)

    def _elaborate_binder(self, s: SBinder, venv: dict) -> Term:
        if s.op == "!>":
            raise self.err("'!>' is only allowed in declaration types", s.span)
        node = _BINDERS[s.op]
        venv = dict(venv)
        bound: list = []
        for var, vty in s.variables:
            domain = self.elaborate_type(vty, venv)
            name = Name(self._fresh_binder(var.text), NameKind.VAR)
            venv[var.text] = ("tyvar",) if is_type_kind(domain) else ("var", name)
            venv[name] = domain
            bound.append((name, domain))
        body = self.elaborate_term(s.body, venv)
        for name, domain in reversed(bound):
            body = node(name, domain, body, span=s.span)
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


def _resolve_includes(items: list, path: str | None, seen: set,
                      diagnostics: list[Diagnostic], warnings_out: list[Diagnostic]) -> list:
    resolved: list = []
    for item in items:
        if not isinstance(item, _Include):
            resolved.append(item)
            continue
        # Named relative to the including file's path as typed; `seen` holds
        # absolute paths, so a cycle is caught however a path is spelled.
        target = os.path.normpath(os.path.join(os.path.dirname(path or ""), item.path))
        if os.path.abspath(target) in seen:
            diagnostics.append(error(f"circular include of {item.path!r}", item.span, path))
            continue
        try:
            with open(target, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            diagnostics.append(error(f"cannot read include {item.path!r}: {exc.strerror or exc}", item.span, path))
            continue
        try:
            tokens = tokenize(text, target)
        except DiagnosticError as exc:
            diagnostics.append(exc.diagnostic)
            continue
        sub_items, sub_diags, sub_warns = _Parser(tokens, target).parse_items()
        diagnostics.extend(sub_diags)
        warnings_out.extend(sub_warns)
        resolved.extend(_resolve_includes(sub_items, target, seen | {os.path.abspath(target)},
                                          diagnostics, warnings_out))
    return resolved


def parse_problem(text: str, path: str | None = None):
    """Parse and elaborate a DTF problem.

    Returns a Problem on success and a non-empty list of Diagnostics on any
    lex, parse, or elaboration error.  The cyclic garbage collector is off
    while it runs: the tokens and trees it builds are acyclic, so reference
    counting frees them, and each collection would only walk them again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_problem(text, path)
    finally:
        if enabled:
            gc.enable()


def _parse_problem(text: str, path: str | None):
    try:
        tokens = tokenize(text, path)
    except DiagnosticError as exc:
        return [exc.diagnostic]
    items, diagnostics, warns = _Parser(tokens, path).parse_items()
    items = _resolve_includes(items, path, {os.path.abspath(path)} if path else set(),
                              diagnostics, warns)
    if diagnostics:
        return diagnostics
    formulae = [i for i in items if isinstance(i, AnnotatedFormula)]
    elab = _Elaborator()
    elab.run(formulae)
    if elab.diagnostics:
        return elab.diagnostics
    return Problem(
        roles=tuple(Counter(f.role for f in formulae).items()),
        theory=Theory(tuple(elab.decls)),
        goal=elab.conjecture,
        polymorphic=elab.polymorphic,
        path=path,
        warnings=tuple(warns),
    )


def parse_file(path: str):
    """Read a .p/.ax file (UTF-8) and parse it; see parse_problem."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return [error(f"cannot read {path!r}: {exc.strerror or exc}", None, path)]
    return parse_problem(text, path)
