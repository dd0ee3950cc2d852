"""Bamboo operator semantics: one ``(op, kind)`` table.

Each entry is a Python expression over the operands ``{0}`` (and ``{1}``)
that uses only the helpers in :data:`HELPERS`. The interpreter's decoder
splices these fixed expressions into the code it generates; the constant
folder evaluates the very same expressions (:func:`binary_function`,
:func:`unary_function`), so the two can never disagree on a result.
Combinations missing from the table are runtime errors.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional

from ..lang.errors import RuntimeBambooError


def int_div(a: int, b: int) -> int:
    """Java ``int /``: truncates toward zero."""
    if b == 0:
        raise RuntimeBambooError("integer division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def int_rem(a: int, b: int) -> int:
    """Java ``int %``: the sign follows the dividend."""
    if b == 0:
        raise RuntimeBambooError("integer division by zero")
    remainder = abs(a) % abs(b)
    return -remainder if a < 0 else remainder


def float_div(a: float, b: float) -> float:
    if b == 0.0:
        raise RuntimeBambooError("float division by zero")
    return a / b


def ref_eq(a, b) -> bool:
    """Reference equality; strings compare by content."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a is b


#: The only names an operator expression may use besides Python builtins.
HELPERS = {
    "int_div": int_div,
    "int_rem": int_rem,
    "float_div": float_div,
    "ref_eq": ref_eq,
    "trunc": math.trunc,
}

BINARY = {
    **{
        (op, kind): "{0} %s {1}" % op
        for kind in ("int", "float", "str", "ref")
        for op in ("<", ">", "<=", ">=", "==", "!=")
    },
    ("+", "int"): "{0} + {1}",
    ("-", "int"): "{0} - {1}",
    ("*", "int"): "{0} * {1}",
    ("/", "int"): "int_div({0}, {1})",
    ("%", "int"): "int_rem({0}, {1})",
    ("+", "float"): "{0} + {1}",
    ("-", "float"): "{0} - {1}",
    ("*", "float"): "{0} * {1}",
    ("/", "float"): "float_div({0}, {1})",
    ("concat", "str"): "{0} + {1}",
    ("==", "ref"): "ref_eq({0}, {1})",
    ("!=", "ref"): "not ref_eq({0}, {1})",
}

UNARY = {
    ("neg", "int"): "-{0}",
    ("neg", "float"): "-{0}",
    ("not", "bool"): "not {0}",
    ("i2f", "int"): "float({0})",
    ("f2i", "int"): "trunc({0})",
    ("tostr", "int"): "str({0})",
    ("tostr", "float"): "repr(float({0}))",
    ("tostr", "bool"): "'true' if {0} else 'false'",
}


@lru_cache(maxsize=None)
def binary_function(op: str, kind: str) -> Optional[Callable]:
    """``BINARY[(op, kind)]`` as a function of two values, or None."""
    expr = BINARY.get((op, kind))
    if expr is None:
        return None
    return eval(f"lambda a, b: {expr.format('a', 'b')}", dict(HELPERS))


@lru_cache(maxsize=None)
def unary_function(op: str, kind: str) -> Optional[Callable]:
    """``UNARY[(op, kind)]`` as a function of one value, or None."""
    expr = UNARY.get((op, kind))
    if expr is None:
        return None
    return eval(f"lambda a: {expr.format('a')}", dict(HELPERS))
