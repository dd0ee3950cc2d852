"""Builtin library surface available to Bamboo programs.

Three kinds of builtins exist:

* **Namespace functions** — static-style calls through a builtin namespace,
  e.g. ``Math.sqrt(x)``, ``System.printString(s)``, ``Integer.parseInt(s)``.
* **String methods** — instance-style calls on ``String`` receivers,
  e.g. ``s.length()``, ``s.split()``.
* **The implicit ``StartupObject`` class** — the paper's program entry point:
  it carries the command-line arguments in its ``args`` field and is created
  by the runtime in the ``initialstate`` abstract state.

Each builtin records its signature for the type checker, a cycle cost for the
machine model, and a Python implementation for the interpreter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from . import types as ty


@dataclass(frozen=True)
class BuiltinFunction:
    """A builtin callable: either namespaced (``Math.sqrt``) or a String
    method (``qualifier == "String#"``, receiver passed as first arg)."""

    qualifier: str
    name: str
    param_types: Tuple[ty.Type, ...]
    return_type: ty.Type
    cost: int
    impl: Callable

    @property
    def key(self) -> str:
        return f"{self.qualifier}.{self.name}"

    def __reduce__(self):
        # The registry is a fixed table, but the ``impl`` lambdas are not
        # picklable; serialize by key and rehydrate from the table so
        # compiled programs can cross process boundaries (the parallel
        # layout-search evaluator ships them to worker processes).
        return (builtin_by_key, (self.key,))


def _print_string(io, s):
    io.write(str(s))
    return None


def _print_int(io, v):
    io.write(str(v))
    return None


def _print_float(io, v):
    io.write(repr(float(v)))
    return None


def _split_words(io, s: str) -> List[str]:
    return s.split()


_NAMESPACE_FUNCTIONS: List[BuiltinFunction] = [
    # Math — costs approximate a software FP library on a simple in-order core.
    BuiltinFunction("Math", "sqrt", (ty.FLOAT,), ty.FLOAT, 30, lambda io, x: math.sqrt(x)),
    BuiltinFunction("Math", "sin", (ty.FLOAT,), ty.FLOAT, 40, lambda io, x: math.sin(x)),
    BuiltinFunction("Math", "cos", (ty.FLOAT,), ty.FLOAT, 40, lambda io, x: math.cos(x)),
    BuiltinFunction("Math", "tan", (ty.FLOAT,), ty.FLOAT, 45, lambda io, x: math.tan(x)),
    BuiltinFunction("Math", "atan", (ty.FLOAT,), ty.FLOAT, 45, lambda io, x: math.atan(x)),
    BuiltinFunction(
        "Math", "atan2", (ty.FLOAT, ty.FLOAT), ty.FLOAT, 50, lambda io, y, x: math.atan2(y, x)
    ),
    BuiltinFunction("Math", "exp", (ty.FLOAT,), ty.FLOAT, 45, lambda io, x: math.exp(x)),
    BuiltinFunction("Math", "log", (ty.FLOAT,), ty.FLOAT, 45, lambda io, x: math.log(x)),
    BuiltinFunction(
        "Math", "pow", (ty.FLOAT, ty.FLOAT), ty.FLOAT, 60, lambda io, x, y: math.pow(x, y)
    ),
    BuiltinFunction("Math", "abs", (ty.FLOAT,), ty.FLOAT, 2, lambda io, x: abs(x)),
    BuiltinFunction("Math", "iabs", (ty.INT,), ty.INT, 2, lambda io, x: abs(x)),
    BuiltinFunction(
        "Math", "min", (ty.FLOAT, ty.FLOAT), ty.FLOAT, 2, lambda io, a, b: min(a, b)
    ),
    BuiltinFunction(
        "Math", "max", (ty.FLOAT, ty.FLOAT), ty.FLOAT, 2, lambda io, a, b: max(a, b)
    ),
    BuiltinFunction(
        "Math", "imin", (ty.INT, ty.INT), ty.INT, 2, lambda io, a, b: min(a, b)
    ),
    BuiltinFunction(
        "Math", "imax", (ty.INT, ty.INT), ty.INT, 2, lambda io, a, b: max(a, b)
    ),
    BuiltinFunction("Math", "floor", (ty.FLOAT,), ty.FLOAT, 5, lambda io, x: math.floor(x)),
    BuiltinFunction("Math", "ceil", (ty.FLOAT,), ty.FLOAT, 5, lambda io, x: math.ceil(x)),
    # System — console output is gathered by the interpreter's IO channel.
    BuiltinFunction("System", "printString", (ty.STRING,), ty.VOID, 10, _print_string),
    BuiltinFunction("System", "printInt", (ty.INT,), ty.VOID, 10, _print_int),
    BuiltinFunction("System", "printFloat", (ty.FLOAT,), ty.VOID, 10, _print_float),
    # Integer / conversions
    BuiltinFunction("Integer", "parseInt", (ty.STRING,), ty.INT, 20, lambda io, s: int(s)),
    BuiltinFunction(
        "String", "valueOf", (ty.INT,), ty.STRING, 20, lambda io, v: str(v)
    ),
]

_STRING_METHODS: List[BuiltinFunction] = [
    BuiltinFunction("String#", "length", (ty.STRING,), ty.INT, 2, lambda io, s: len(s)),
    BuiltinFunction(
        "String#", "charAt", (ty.STRING, ty.INT), ty.INT, 2, lambda io, s, i: ord(s[i])
    ),
    BuiltinFunction(
        "String#",
        "substring",
        (ty.STRING, ty.INT, ty.INT),
        ty.STRING,
        5,
        lambda io, s, a, b: s[a:b],
    ),
    BuiltinFunction(
        "String#",
        "equals",
        (ty.STRING, ty.STRING),
        ty.BOOL,
        5,
        lambda io, a, b: a == b,
    ),
    BuiltinFunction(
        "String#",
        "indexOf",
        (ty.STRING, ty.STRING),
        ty.INT,
        10,
        lambda io, s, n: s.find(n),
    ),
    BuiltinFunction(
        "String#", "hashCode", (ty.STRING,), ty.INT, 10,
        lambda io, s: sum((i + 1) * ord(c) for i, c in enumerate(s)) % 2147483647,
    ),
    BuiltinFunction(
        "String#", "split", (ty.STRING,), ty.ArrayType(ty.STRING), 40, _split_words
    ),
]

#: Builtin namespaces; identifiers with these names resolve to builtin
#: function qualifiers rather than variables.
NAMESPACES = frozenset({"Math", "System", "Integer", "String"})


def lookup_namespace_function(qualifier: str, name: str) -> Optional[BuiltinFunction]:
    for fn in _NAMESPACE_FUNCTIONS:
        if fn.qualifier == qualifier and fn.name == name:
            return fn
    return None


def lookup_string_method(name: str) -> Optional[BuiltinFunction]:
    for fn in _STRING_METHODS:
        if fn.name == name:
            return fn
    return None


def all_builtins() -> List[BuiltinFunction]:
    return list(_NAMESPACE_FUNCTIONS) + list(_STRING_METHODS)


def builtin_by_key(key: str) -> BuiltinFunction:
    for fn in all_builtins():
        if fn.key == key:
            return fn
    raise KeyError(key)


#: Name of the implicit startup class (paper §3: "Bamboo applications are
#: started by the creation of a StartupObject object").
STARTUP_CLASS = "StartupObject"
#: Its single declared flag.
STARTUP_FLAG = "initialstate"
#: Its single field: the command-line arguments.
STARTUP_ARGS_FIELD = "args"
