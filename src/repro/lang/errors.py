"""Error types and source-location tracking for the Bamboo frontend.

Every diagnostic raised by the lexer, parser, and semantic analyzer carries a
:class:`SourceLocation` so callers (and tests) can pinpoint the offending
source text.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceLocation:
    """A position in a Bamboo source file (1-based line and column)."""

    line: int
    column: int
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


UNKNOWN_LOCATION = SourceLocation(0, 0, "<unknown>")


class BambooError(Exception):
    """Base class for all diagnostics produced by the Bamboo toolchain."""

    def __init__(self, message: str, location: SourceLocation = UNKNOWN_LOCATION):
        super().__init__(f"{location}: {message}")
        self.message = message
        self.location = location


class LexError(BambooError):
    """Raised when the lexer encounters malformed input."""


class ParseError(BambooError):
    """Raised when the parser encounters a syntax error."""


class SemanticError(BambooError):
    """Raised by type checking and name resolution."""


class LoweringError(BambooError):
    """Raised when AST-to-IR lowering encounters an unsupported construct."""


class RuntimeBambooError(Exception):
    """Raised when interpreted Bamboo code performs an illegal operation.

    This corresponds to a runtime fault in generated code (null dereference,
    out-of-bounds index, division by zero) rather than a compile-time
    diagnostic, so it does not carry a static source location.
    """


class ScheduleError(Exception):
    """Raised by the implementation-synthesis pipeline for invalid layouts."""
