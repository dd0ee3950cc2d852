"""Bamboo surface language: lexer, parser, AST, and pretty-printer."""

from .errors import (
    BambooError,
    LexError,
    LoweringError,
    ParseError,
    RuntimeBambooError,
    ScheduleError,
    SemanticError,
    SourceLocation,
)
from .lexer import Lexer, tokenize
from .parser import Parser, parse_program
from .pretty import format_program

__all__ = [
    "BambooError",
    "LexError",
    "Lexer",
    "LoweringError",
    "ParseError",
    "Parser",
    "RuntimeBambooError",
    "ScheduleError",
    "SemanticError",
    "SourceLocation",
    "format_program",
    "parse_program",
    "tokenize",
]
