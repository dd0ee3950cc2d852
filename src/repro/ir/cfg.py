"""Control-flow-graph utilities over the IR."""

from __future__ import annotations

from typing import Set

from . import instructions as ir


def reachable_blocks(func: ir.IRFunction) -> Set[int]:
    """Block ids reachable from the entry block."""
    seen: Set[int] = set()
    stack = [func.entry]
    while stack:
        block_id = stack.pop()
        if block_id in seen:
            continue
        seen.add(block_id)
        stack.extend(func.block(block_id).successors())
    return seen


def reachable_exits(func: ir.IRFunction) -> Set[int]:
    """Exit ids of task exit points that are reachable from the entry."""
    out: Set[int] = set()
    for block_id in reachable_blocks(func):
        term = func.block(block_id).terminator
        if isinstance(term, ir.Exit):
            out.add(term.exit_id)
    return out
