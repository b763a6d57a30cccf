"""Source spans and diagnostics shared by the parser and the checkers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Span(NamedTuple):
    """1-based line/column position with a token length in characters."""

    line: int
    column: int
    length: int = 1


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    span: Span | None
    message: str
    path: str | None = None

    def format(self) -> str:
        where = self.path or "<input>"
        if self.span is not None:
            return f"{where}:{self.span.line}:{self.span.column}: {self.severity}: {self.message}"
        return f"{where}: {self.severity}: {self.message}"


class DiagnosticError(Exception):
    """Carries one located diagnostic out of the lexer, the parser, the
    elaborator or the deep checker."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


def error(message: str, span: Span | None = None, path: str | None = None) -> Diagnostic:
    return Diagnostic("error", span, message, path)


def warning(message: str, span: Span | None = None, path: str | None = None) -> Diagnostic:
    return Diagnostic("warning", span, message, path)
