"""IR optimization passes.

Classic scalar cleanups over the register IR, applied per function until a
fixpoint: constant folding (with branch folding), block-local copy
propagation, flow-insensitive dead-code elimination, jump threading, and
unreachable-block compaction. Exception-preserving: operations that can
fault at runtime (division by zero) are never folded away or deleted.

The optimizer is opt-in (``compile_program(..., optimize=True)`` or
``python -m repro run -O``): the recorded experiment numbers in
EXPERIMENTS.md were measured with the straight translation, mirroring the
paper's unoptimized per-task code generation.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..lang.errors import RuntimeBambooError
from . import instructions as ir
from . import ops
from .verify import verify_function


def _fold_binop(op: str, kind: str, left, right):
    """Evaluates a constant binary operation through the operator table;
    returns None when the fold is unsafe (faulting or semantics-changing)."""
    if op == "concat" and not (isinstance(left, str) and isinstance(right, str)):
        return None
    function = ops.binary_function(op, kind)
    if function is None:
        return None
    try:
        return function(left, right)
    except (RuntimeBambooError, TypeError):
        return None  # the fault (or type error) stays a runtime one


def _fold_unop(op: str, kind: str, value):
    function = ops.unary_function(op, kind)
    return None if function is None else function(value)


class FunctionOptimizer:
    """Optimizes one IR function in place."""

    def __init__(self, func: ir.IRFunction):
        self.func = func
        self.stats: Dict[str, int] = {
            "folded": 0,
            "copies": 0,
            "dead": 0,
            "threaded": 0,
            "blocks_removed": 0,
        }

    # -- constant folding + copy propagation (block-local) --------------------

    def _propagate_block(self, block: ir.BasicBlock) -> bool:
        """Forward-substitutes constants and copies within one block."""
        changed = False
        values: Dict[int, ir.Operand] = {}  # reg index -> known operand

        def resolve(operand: ir.Operand) -> ir.Operand:
            seen = set()
            while (
                isinstance(operand, ir.Reg)
                and operand.index in values
                and operand.index not in seen
            ):
                seen.add(operand.index)
                operand = values[operand.index]
            return operand

        for position, instr in enumerate(block.instructions):
            # Substitute known operands.
            replaced = self._rewrite_operands(instr, resolve)
            changed |= replaced

            if isinstance(instr, ir.Move):
                # Overwriting dst invalidates copies that referenced it.
                stale = [
                    k
                    for k, v in values.items()
                    if isinstance(v, ir.Reg) and v.index == instr.dst.index
                ]
                for k in stale:
                    del values[k]
                src = instr.src
                if isinstance(src, (ir.Const, ir.Reg)) and not (
                    isinstance(src, ir.Reg) and src.index == instr.dst.index
                ):
                    values[instr.dst.index] = src
                else:
                    values.pop(instr.dst.index, None)
                continue

            if isinstance(instr, ir.BinOp) and isinstance(
                instr.a, ir.Const
            ) and isinstance(instr.b, ir.Const):
                folded = _fold_binop(instr.op, instr.kind, instr.a.value, instr.b.value)
                if folded is not None:
                    block.instructions[position] = ir.Move(
                        instr.dst, ir.Const(folded)
                    )
                    values[instr.dst.index] = ir.Const(folded)
                    self.stats["folded"] += 1
                    changed = True
                    continue
            if isinstance(instr, ir.UnOp) and isinstance(instr.a, ir.Const):
                folded = _fold_unop(instr.op, instr.kind, instr.a.value)
                if folded is not None:
                    block.instructions[position] = ir.Move(
                        instr.dst, ir.Const(folded)
                    )
                    values[instr.dst.index] = ir.Const(folded)
                    self.stats["folded"] += 1
                    changed = True
                    continue

            # Any other destination invalidates prior knowledge of that reg.
            dest = instr.dest()
            if dest is not None:
                values.pop(dest.index, None)
                # Also invalidate copies that referenced the overwritten reg.
                stale = [
                    k
                    for k, v in values.items()
                    if isinstance(v, ir.Reg) and v.index == dest.index
                ]
                for k in stale:
                    del values[k]
        return changed

    @staticmethod
    def _rewrite_operands(instr: ir.Instr, resolve) -> bool:
        changed = False

        def sub(operand):
            nonlocal changed
            new = resolve(operand)
            if new is not operand and new != operand:
                changed = True
            return new

        if isinstance(instr, ir.Move):
            instr.src = sub(instr.src)
        elif isinstance(instr, ir.BinOp):
            instr.a = sub(instr.a)
            instr.b = sub(instr.b)
        elif isinstance(instr, ir.UnOp):
            instr.a = sub(instr.a)
        elif isinstance(instr, ir.Load):
            instr.obj = sub(instr.obj)
        elif isinstance(instr, ir.Store):
            instr.obj = sub(instr.obj)
            instr.src = sub(instr.src)
        elif isinstance(instr, ir.ALoad):
            instr.array = sub(instr.array)
            instr.index = sub(instr.index)
        elif isinstance(instr, ir.AStore):
            instr.array = sub(instr.array)
            instr.index = sub(instr.index)
            instr.src = sub(instr.src)
        elif isinstance(instr, ir.ArrLen):
            instr.array = sub(instr.array)
        elif isinstance(instr, ir.NewArr):
            instr.dims = [sub(d) for d in instr.dims]
        elif isinstance(instr, (ir.Call, ir.CallBuiltin)):
            instr.args = [sub(a) for a in instr.args]
        elif isinstance(instr, ir.BindTag):
            instr.obj = sub(instr.obj)
            instr.tag = sub(instr.tag)
        elif isinstance(instr, ir.Branch):
            instr.cond = sub(instr.cond)
        elif isinstance(instr, ir.Ret) and instr.src is not None:
            instr.src = sub(instr.src)
        return changed

    # -- branch folding ---------------------------------------------------------

    def _fold_branches(self) -> bool:
        changed = False
        for block in self.func.blocks:
            term = block.terminator
            if isinstance(term, ir.Branch) and isinstance(term.cond, ir.Const):
                target = term.true_target if term.cond.value else term.false_target
                block.instructions[-1] = ir.Jump(target)
                self.stats["folded"] += 1
                changed = True
        return changed

    # -- jump threading ----------------------------------------------------------

    def _thread_jumps(self) -> bool:
        """Redirects edges that point at empty forwarding blocks."""
        forward: Dict[int, int] = {}
        for block in self.func.blocks:
            if len(block.instructions) == 1 and isinstance(
                block.instructions[0], ir.Jump
            ):
                forward[block.block_id] = block.instructions[0].target

        def final(target: int) -> int:
            seen = set()
            while target in forward and target not in seen:
                seen.add(target)
                target = forward[target]
            return target

        changed = False
        for block in self.func.blocks:
            term = block.terminator
            if isinstance(term, ir.Jump):
                target = final(term.target)
                if target != term.target:
                    term.target = target
                    self.stats["threaded"] += 1
                    changed = True
            elif isinstance(term, ir.Branch):
                true_target = final(term.true_target)
                false_target = final(term.false_target)
                if (true_target, false_target) != (
                    term.true_target,
                    term.false_target,
                ):
                    term.true_target = true_target
                    term.false_target = false_target
                    self.stats["threaded"] += 1
                    changed = True
        entry = final(self.func.entry)
        if entry != self.func.entry:
            self.func.entry = entry
            changed = True
        return changed

    # -- dead code elimination ------------------------------------------------------

    _PURE = (ir.Move, ir.BinOp, ir.UnOp, ir.Load, ir.ALoad, ir.ArrLen)

    def _eliminate_dead(self) -> bool:
        used: Set[int] = set()
        for block in self.func.blocks:
            for instr in block.instructions:
                for operand in instr.operands():
                    if isinstance(operand, ir.Reg):
                        used.add(operand.index)
        # Registers named by taskexit tag actions stay live.
        for spec in self.func.exits.values():
            for actions in spec.tag_updates.values():
                for action in actions:
                    used.add(action.tag_reg.index)
        # Parameters are externally visible.
        used.update(range(len(self.func.param_names)))

        changed = False
        for block in self.func.blocks:
            kept: List[ir.Instr] = []
            for instr in block.instructions:
                dest = instr.dest()
                is_pure = isinstance(instr, self._PURE)
                faulting = (
                    isinstance(instr, (ir.Load, ir.ALoad, ir.ArrLen))
                    or (
                        isinstance(instr, ir.BinOp)
                        and instr.op in ("/", "%")
                    )
                )
                if (
                    is_pure
                    and not faulting
                    and dest is not None
                    and dest.index not in used
                ):
                    self.stats["dead"] += 1
                    changed = True
                    continue
                kept.append(instr)
            block.instructions = kept
        return changed

    # -- unreachable block compaction ----------------------------------------------

    def _compact(self) -> bool:
        reachable: Set[int] = set()
        stack = [self.func.entry]
        while stack:
            block_id = stack.pop()
            if block_id in reachable:
                continue
            reachable.add(block_id)
            stack.extend(self.func.blocks[block_id].successors())
        if len(reachable) == len(self.func.blocks):
            return False
        remap: Dict[int, int] = {}
        new_blocks: List[ir.BasicBlock] = []
        for block in self.func.blocks:
            if block.block_id in reachable:
                remap[block.block_id] = len(new_blocks)
                block.block_id = len(new_blocks)
                new_blocks.append(block)
        for block in new_blocks:
            term = block.terminator
            if isinstance(term, ir.Jump):
                term.target = remap[term.target]
            elif isinstance(term, ir.Branch):
                term.true_target = remap[term.true_target]
                term.false_target = remap[term.false_target]
        self.stats["blocks_removed"] += len(self.func.blocks) - len(new_blocks)
        self.func.entry = remap[self.func.entry]
        self.func.blocks = new_blocks
        return True

    # -- driver -------------------------------------------------------------------------

    def run(self, max_rounds: int = 10) -> Dict[str, int]:
        for _ in range(max_rounds):
            changed = False
            for block in self.func.blocks:
                changed |= self._propagate_block(block)
            changed |= self._fold_branches()
            changed |= self._thread_jumps()
            changed |= self._compact()
            changed |= self._eliminate_dead()
            if not changed:
                break
        problems = verify_function(self.func)
        if problems:  # pragma: no cover - optimizer invariant
            raise RuntimeBambooError(
                f"optimizer produced malformed IR: {problems}"
            )
        return self.stats


def optimize_function(func: ir.IRFunction) -> Dict[str, int]:
    """Optimizes one function in place; returns per-pass statistics."""
    return FunctionOptimizer(func).run()


def optimize_program(program: ir.IRProgram) -> Dict[str, int]:
    """Optimizes every function; returns aggregate statistics."""
    totals: Dict[str, int] = {}
    for func in list(program.methods.values()) + list(program.tasks.values()):
        for key, value in optimize_function(func).items():
            totals[key] = totals.get(key, 0) + value
    return totals
