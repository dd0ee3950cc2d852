"""Abstract object states.

An abstract state node in the paper's ASTG contains (1) the values of all
the object's flags and (2) a 1-limited count — 0, 1, or "at least 1" — of
the tag instances of each type bound to the object (§4.1). We represent the
count domain as 0 / 1 / 2 where 2 means "two or more".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple

from ..lang import ast


@dataclass(frozen=True)
class AState:
    """An abstract object state: true flags + 1-limited tag counts."""

    flags: FrozenSet[str]
    tags: Tuple[Tuple[str, int], ...] = ()

    def _sort_key(self):
        return (tuple(sorted(self.flags)), self.tags)

    def __lt__(self, other: "AState") -> bool:
        # frozenset comparison is subset ordering, not a total order, so
        # sorting uses the lexicographic flag tuple instead.
        return self._sort_key() < other._sort_key()

    def __le__(self, other: "AState") -> bool:
        return self._sort_key() <= other._sort_key()

    def __gt__(self, other: "AState") -> bool:
        return self._sort_key() > other._sort_key()

    def __ge__(self, other: "AState") -> bool:
        return self._sort_key() >= other._sort_key()

    @staticmethod
    def make(flags: Iterable[str] = (), tags: Dict[str, int] = None) -> "AState":
        tag_items = tuple(
            sorted((t, min(max(c, 0), 2)) for t, c in (tags or {}).items() if c > 0)
        )
        return AState(flags=frozenset(flags), tags=tag_items)

    def tag_count(self, tag_type: str) -> int:
        for name, count in self.tags:
            if name == tag_type:
                return count
        return 0

    def with_flags(self, updates: Dict[str, bool]) -> "AState":
        flags = set(self.flags)
        for flag, value in updates.items():
            if value:
                flags.add(flag)
            else:
                flags.discard(flag)
        return AState(flags=frozenset(flags), tags=self.tags)

    def with_tag_delta(self, tag_type: str, delta: int) -> "AState":
        counts = dict(self.tags)
        counts[tag_type] = min(max(counts.get(tag_type, 0) + delta, 0), 2)
        return AState.make(self.flags, counts)

    def label(self) -> str:
        parts = sorted(self.flags)
        for tag_type, count in self.tags:
            suffix = "+" if count >= 2 else ""
            parts.append(f"<{tag_type}{suffix}>")
        return "{" + ",".join(parts) + "}" if parts else "{}"

    def __str__(self) -> str:
        return self.label()


def eval_flag_expr(expr: ast.FlagExpr, state: AState) -> bool:
    """Evaluates a task guard flag expression against an abstract state."""
    if isinstance(expr, ast.FlagRef):
        return expr.name in state.flags
    if isinstance(expr, ast.FlagConst):
        return expr.value
    if isinstance(expr, ast.FlagNot):
        return not eval_flag_expr(expr.operand, state)
    if isinstance(expr, ast.FlagAnd):
        return eval_flag_expr(expr.left, state) and eval_flag_expr(expr.right, state)
    if isinstance(expr, ast.FlagOr):
        return eval_flag_expr(expr.left, state) or eval_flag_expr(expr.right, state)
    raise TypeError(f"unknown flag expression {type(expr).__name__}")


def guard_matches(param: ast.TaskParam, state: AState) -> bool:
    """Whether an abstract state satisfies a task parameter's full guard
    (flag expression plus tag-presence constraints)."""
    if not eval_flag_expr(param.guard, state):
        return False
    for tag_guard in param.tag_guards:
        if state.tag_count(tag_guard.tag_type) < 1:
            return False
    return True


def runtime_guard_matches(param: ast.TaskParam, obj) -> bool:
    """Runtime version of :func:`guard_matches` over a concrete object."""
    state = AState.make(
        obj.flags, {t: len(tags) for t, tags in obj.tags.items()}
    )
    return guard_matches(param, state)


def state_of_object(obj) -> AState:
    """The abstract state a concrete heap object currently occupies."""
    return AState.make(obj.flags, {t: len(tags) for t, tags in obj.tags.items()})
