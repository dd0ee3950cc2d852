"""IR interpreter with cycle accounting.

This stands in for the machine code the paper's compiler emits for the
TILEPro64: executing a task or method yields both its *result* (heap effects,
exit point taken, objects allocated) and its *cost* in simulated cycles under
the :mod:`repro.ir.costs` model.

The interpreter is deliberately independent of the many-core machine — the
machine simulator calls :meth:`Interpreter.run_task` / ``run_method`` and
spends the returned cycles on a core's clock, while the sequential baseline
harness calls ``run_method`` directly (no runtime overhead), mirroring the
paper's single-core C versions.

Execution is compile-once. The first time a function runs on an
interpreter, it becomes one generated Python function
``f(interp, depth, r0, ..., r<p-1>)`` whose locals are the registers and
constant slots (``r<n>``) and the step and cycle counters (``st``,
``cy``). Blocks are still cut into straight-line *segments*, each ending
at a terminator or right after a :class:`~repro.ir.instructions.Call`; a
segment's cycle cost and step count are summed at compile time (from
:mod:`repro.ir.costs` only), and the segment charges them and checks the
step budget once, on entry. Control flow between segments is code: a
block with one predecessor is inlined into it, and the entry and every
merge point are arms of one ``while True`` dispatch on a block id,
innermost loop first. The counters go back to the interpreter only around
calls, array allocation (the one dynamic cost), returns, task exits and
the budget fault, and a call invokes the callee's generated function
directly. Generated source holds nothing but integers, fixed names and
operator expressions from :mod:`repro.ir.ops`: constants, messages and IR
objects reach it through a side table (``K<n>``).
"""

from __future__ import annotations

import io as _io
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..lang.errors import RuntimeBambooError
from ..sema import builtins
from ..sema import types as ty
from ..sema.symbols import ProgramInfo
from ..ir import costs
from ..ir import instructions as ir
from ..ir import ops
from .objects import BArray, BObject, Heap, TagInstance, default_field_value

#: Hard limit on interpreted instructions per top-level run, to turn infinite
#: loops in user programs into errors instead of hangs.
DEFAULT_MAX_STEPS = 500_000_000

_MAX_CALL_DEPTH = 400

#: Inlined branches nest at most this deep in generated code (Python
#: allows 100 indentation levels); a deeper target becomes a dispatch arm.
_MAX_NESTING = 50


@dataclass
class NewObjectRecord:
    """An object allocated during one task invocation, with its site."""

    obj: BObject
    site_id: int


@dataclass
class TaskEffects:
    """Everything the runtime needs to commit after a task invocation."""

    exit_id: int
    cycles: int
    new_objects: List[NewObjectRecord] = field(default_factory=list)
    #: Resolved tag actions per parameter index: (op, tag instance).
    tag_actions: Dict[int, List[Tuple[str, TagInstance]]] = field(default_factory=dict)


class Interpreter:
    """Executes IR functions against a shared heap."""

    def __init__(
        self,
        ir_program: ir.IRProgram,
        info: ProgramInfo,
        heap: Optional[Heap] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        bounds_checks: bool = False,
    ):
        self.ir_program = ir_program
        self.info = info
        self.heap = heap if heap is not None else Heap()
        self.max_steps = max_steps
        #: When True, every array access pays BOUNDS_CHECK_COST extra cycles
        #: (the paper's optional safety mode, §5.5). The interpreter always
        #: *performs* the check — Python-level safety — so the flag only
        #: affects cost accounting, exactly like enabling the emitted checks
        #: in the paper's generated C code.
        self._array_access_cost_extra = (
            costs.BOUNDS_CHECK_COST if bounds_checks else 0
        )
        self.steps = 0
        self.stdout = _io.StringIO()
        self._builtin_cache: Dict[str, builtins.BuiltinFunction] = {
            fn.key: fn for fn in builtins.all_builtins()
        }
        #: Compiled functions, by ``id`` of their IRFunction. Generated code
        #: cannot be pickled, so it lives here and never on the IR.
        self._functions: Dict[int, Callable] = {}
        # Per-run state:
        self._cycles = 0
        self._new_objects: List[NewObjectRecord] = []

    # -- public API ----------------------------------------------------------

    def run_method(self, qualified_name: str, args: List[object]) -> Tuple[object, int]:
        """Runs a method/constructor; returns ``(return value, cycles)``."""
        function = self._function(self.ir_program.methods[qualified_name])
        start = self._cycles
        value = function(self, 0, *args)
        return value, self._cycles - start

    def run_task(self, task_name: str, params: List[BObject]) -> TaskEffects:
        """Runs a task body on the given parameter objects.

        Returns the exit point taken, the cycle cost of the body, the objects
        it allocated (with their allocation sites, already carrying their
        initial flags), and the resolved taskexit tag actions. Flag updates
        from the exit spec are **not** applied here — the runtime commits
        them (and pays :data:`repro.ir.costs.FLAG_UPDATE_COST`) so that
        dispatch policy stays out of the interpreter.
        """
        function = self._function(self.ir_program.tasks[task_name])
        start_cycles = self._cycles
        saved_new = self._new_objects
        self._new_objects = []
        exit_state = function(self, 0, *params)
        assert isinstance(exit_state, _TaskExitSignal)
        effects = TaskEffects(
            exit_id=exit_state.exit_id,
            cycles=self._cycles - start_cycles,
            new_objects=self._new_objects,
            tag_actions=exit_state.tag_actions,
        )
        self._new_objects = saved_new
        return effects

    def output(self) -> str:
        return self.stdout.getvalue()

    # -- execution core ---------------------------------------------------------

    def _function(self, func: ir.IRFunction) -> Callable:
        function = self._functions.get(id(func))
        if function is None:
            compiler = _Compiler(self, func)
            # Only per-function constants go here: the interpreter reaches
            # the code as an argument, so a run's heap is freed with it.
            namespace = dict(
                ops.HELPERS,
                Fault=RuntimeBambooError,
                array_fault=_array_fault,
                task_exit=_task_exit,
            )
            namespace.update(
                (f"K{index}", value) for index, value in enumerate(compiler.side)
            )
            # A file name per function keeps profiles and tracebacks apart.
            code = compile(compiler.source(), f"<IR {func.name}>", "exec")
            exec(code, namespace)
            function = self._functions[id(func)] = namespace["f"]
            # Callees link once ``f`` is registered, so recursion ends.
            for target, name in compiler.callees.items():
                namespace[name] = self._function(self.ir_program.methods[target])
        return function

    def _new_object(self, site: tuple) -> BObject:
        class_name, defaults, flag_inits, site_id = site
        obj = self.heap.new_object(class_name, len(defaults))
        obj.fields[:] = defaults
        for flag, value in flag_inits:
            obj.set_flag(flag, value)
        self._new_objects.append(NewObjectRecord(obj=obj, site_id=site_id))
        return obj

    def _new_array(self, instr: ir.NewArr, dims: List[int]) -> BArray:
        return self._alloc_array_level(instr.elem_type, dims, instr.extra_dims, 0)

    def _alloc_array_level(
        self, elem_type: str, dims: List[int], extra_dims: int, level: int
    ) -> BArray:
        length = dims[level]
        if not isinstance(length, int) or length < 0:
            raise RuntimeBambooError(f"invalid array length {length}")
        # The segment already paid the outermost array's base cost.
        self._cycles += costs.NEWARR_PER_ELEM_COST * length + (
            costs.NEWARR_BASE_COST if level else 0
        )
        if level + 1 < len(dims):
            values = [
                self._alloc_array_level(elem_type, dims, extra_dims, level + 1)
                for _ in range(length)
            ]
            return BArray(elem_type=elem_type, values=values)
        fill = default_field_value(elem_type) if extra_dims == 0 else None
        return BArray(elem_type=elem_type, values=[fill] * length)


def _array_fault(array, index, func_name: str) -> None:
    """Raises the error of an array access that failed its inline check."""
    if array is None:
        raise RuntimeBambooError(f"null array access in {func_name}")
    raise RuntimeBambooError(
        f"array index {index} out of bounds "
        f"(length {len(array.values)}) in {func_name}"
    )


def _task_exit(func: ir.IRFunction, exit_id: int, tags: tuple):
    """The signal of taskexit ``exit_id``; ``tags`` holds the values of its
    tag registers in exit-spec order."""
    values = iter(tags)
    tag_actions: Dict[int, List[Tuple[str, TagInstance]]] = {}
    for param_index, actions in func.exits[exit_id].tag_updates.items():
        resolved = []
        for action in actions:
            tag = next(values)
            if not isinstance(tag, TagInstance):
                raise RuntimeBambooError(
                    "taskexit tag action on an unbound tag variable"
                )
            resolved.append((action.op, tag))
        tag_actions[param_index] = resolved
    return _TaskExitSignal(exit_id=exit_id, tag_actions=tag_actions)


class _Compiler:
    """Compiles one IR function to the source of one Python function ``f``.

    ``side`` holds the objects generated code names ``K<n>``; ``callees``
    maps each called method to the side-table name its function is bound
    to once ``f`` exists.
    """

    def __init__(self, interp: Interpreter, func: ir.IRFunction):
        self.interp = interp
        self.func = func
        self.side: List[object] = []
        self.callees: Dict[str, str] = {}
        self._params = len(func.param_names)
        self._defaults: Dict[int, str] = {}  # register -> default value
        self._consts: Dict[tuple, int] = {}
        self._name = self._k(func.name)
        self._budget = self._k(f"instruction budget exhausted in {func.name}")
        self._too_deep = self._k(f"call depth exceeded in {func.name}")

        # Each block as its segments' (body, terminator) pairs; a segment
        # cut right after a Call has terminator None.
        self._segments: List[List[tuple]] = []
        for block in func.blocks:
            segments: List[tuple] = []
            body: List[ir.Instr] = []
            for instr in block.instructions:
                if isinstance(instr, ir.TERMINATORS):
                    segments.append((body, instr))
                    break
                body.append(instr)
                if type(instr) is ir.Call:
                    segments.append((body, None))
                    body = []
            else:
                raise RuntimeBambooError(
                    f"{func.name}: block B{block.block_id} lacks a terminator"
                )
            self._segments.append(segments)

        # Reachable blocks' edges; the entry and every merge point are arms.
        self._succs: Dict[int, List[int]] = {}
        self._preds: Dict[int, List[int]] = {func.entry: []}
        stack = [func.entry]
        while stack:
            block_id = stack.pop()
            if block_id not in self._succs:
                self._succs[block_id] = func.block(block_id).successors()
                for target in self._succs[block_id]:
                    self._preds.setdefault(target, []).append(block_id)
                    stack.append(target)
        self._arms = {func.entry}
        self._arms.update(b for b, preds in self._preds.items() if len(preds) > 1)
        self._pending = sorted(self._arms)
        self._code: Dict[int, List[Tuple[int, str]]] = {}  # arm -> lines
        self._dispatch = False  # whether any code jumps to an arm
        while self._pending:
            block_id = self._pending.pop()
            self._out = self._code[block_id] = []
            self._indent = 0
            self._emit(block_id)

    def source(self) -> str:
        params = [f"r{index}" for index in range(self._params)]
        defaults = [f"r{reg}={value}" for reg, value in sorted(self._defaults.items())]
        lines = [
            f"def f({', '.join(['interp', 'depth', *params, *defaults])}):",
            f"    if depth > {_MAX_CALL_DEPTH}: raise Fault({self._too_deep})",
            "    st = interp.steps; cy = interp._cycles; mx = interp.max_steps",
        ]
        entry = self.func.entry
        if not self._dispatch:
            lines += ("    " * (indent + 1) + text for indent, text in self._code[entry])
        else:
            lines += [f"    b = {entry}", "    while True:"]
            depth = _loop_depths(entry, self._succs, self._preds)
            for arm in sorted(self._code, key=lambda b: (-depth[b], b == entry, b)):
                lines.append(f"        if b == {arm}:")
                lines += ("    " * (indent + 3) + text for indent, text in self._code[arm])
        return "\n".join(lines) + "\n"

    def _emit(self, block_id: Optional[int]) -> None:
        """Emits a block, then each block inlined after it at this depth."""
        while block_id is not None:
            # Registers null-checked since the block began: a later
            # access in the block needs no check until one is reassigned.
            self._checked = set()
            for body, term in self._segments[block_id]:
                self._charge(body if term is None else body + [term])
                for instr in body:
                    _EMITTERS[type(instr)](self, instr)
                    dst = instr.dest()
                    if dst is not None:
                        self._checked.discard(f"r{int(dst.index)}")
            block_id = self._terminator(term)

    def _charge(self, counted: List[ir.Instr]) -> None:
        steps = len(counted)
        self._line(f"st += {steps}")
        self._line(
            f"if st > mx: interp.steps = st - {steps}; interp._cycles = cy; "
            f"raise Fault({self._budget})"
        )
        self._line(f"cy += {sum(map(self._cost, counted))}")

    def _terminator(self, term: ir.Instr) -> Optional[int]:
        """Emits ``term``; returns the successor to inline after it."""
        kind = type(term)
        if kind is ir.Jump:
            return self._next(term.target)
        if kind is ir.Branch:
            cond, taken, other = self._r(term.cond), term.true_target, term.false_target
            if other in self._arms and taken not in self._arms:
                cond, taken, other = f"not {cond}", other, taken
            if taken not in self._arms and self._indent >= _MAX_NESTING:
                self._arms.add(taken)
                self._pending.append(taken)
            if taken in self._arms:
                self._line(f"if {cond}: b = {taken}; continue")
                self._dispatch = True
            else:
                self._line(f"if {cond}:")
                self._indent += 1
                self._emit(taken)
                self._indent -= 1
            return self._next(other)
        if kind is ir.Trap:
            self._line(f"raise Fault({self._k(term.message)})")
            return None
        self._line("interp.steps = st; interp._cycles = cy")
        if kind is ir.Ret:
            self._line("return" if term.src is None else f"return {self._r(term.src)}")
        else:
            tags = "".join(
                self._r(action.tag_reg) + ", "
                for actions in self.func.exits[term.exit_id].tag_updates.values()
                for action in actions
            )
            exit_call = f"task_exit({self._k(self.func)}, {term.exit_id}, ({tags}))"
            self._line(f"return {exit_call}")
        return None

    def _next(self, target: int) -> Optional[int]:
        """``target`` if it inlines here; else emits a jump to its arm."""
        if target not in self._arms:
            return target
        self._line(f"b = {target}; continue")
        self._dispatch = True
        return None

    def _r(self, operand: ir.Operand) -> str:
        """The local holding an operand; constants get slots past the
        registers, bound from the side table."""
        if type(operand) is ir.Reg:
            reg = int(operand.index)
            if reg >= self._params:
                self._defaults.setdefault(reg, "None")
            return f"r{reg}"
        value = operand.value
        key = (type(value), repr(value))
        reg = self._consts.get(key)
        if reg is None:
            reg = self._consts[key] = self.func.num_regs + len(self._consts)
            self._defaults[reg] = self._k(value)
        return f"r{reg}"

    def _k(self, value: object) -> str:
        """Names a side-table entry for generated code."""
        self.side.append(value)
        return f"K{len(self.side) - 1}"

    def _cost(self, instr: ir.Instr) -> int:
        cost = costs.instruction_cost(instr)
        if type(instr) is ir.CallBuiltin:
            cost += self.interp._builtin_cache[instr.key].cost
        elif type(instr) in (ir.ALoad, ir.AStore):
            cost += self.interp._array_access_cost_extra
        return cost

    # -- instructions ----------------------------------------------------------------

    def _line(self, text: str) -> None:
        self._out.append((self._indent, text))

    def _null_check(self, value: str, message: str) -> None:
        if value not in self._checked:
            self._checked.add(value)
            self._line(f"if {value} is None: raise Fault({self._k(message)})")

    def _array_check(self, array: str, index: str) -> None:
        self._line(
            f"if {array} is None or not 0 <= {index} < len({array}.values): "
            f"array_fault({array}, {index}, {self._name})"
        )

    def _move(self, instr: ir.Move) -> None:
        self._line(f"{self._r(instr.dst)} = {self._r(instr.src)}")

    def _binop(self, instr: ir.BinOp) -> None:
        expr = ops.BINARY.get((instr.op, instr.kind))
        if expr is None:
            message = f"unknown {instr.kind} operator '{instr.op}'"
            self._line(f"raise Fault({self._k(message)})")
        else:
            value = expr.format(self._r(instr.a), self._r(instr.b))
            self._line(f"{self._r(instr.dst)} = {value}")

    def _unop(self, instr: ir.UnOp) -> None:
        expr = ops.UNARY.get((instr.op, instr.kind))
        if expr is None:
            message = f"unknown unary operator '{instr.op}'"
            self._line(f"raise Fault({self._k(message)})")
        else:
            self._line(f"{self._r(instr.dst)} = {expr.format(self._r(instr.a))}")

    def _load(self, instr: ir.Load) -> None:
        obj = self._r(instr.obj)
        self._null_check(
            obj, f"null dereference loading .{instr.field_name} in {self.func.name}"
        )
        field_index = int(instr.field_index)
        self._line(f"{self._r(instr.dst)} = {obj}.fields[{field_index}]")

    def _store(self, instr: ir.Store) -> None:
        obj = self._r(instr.obj)
        self._null_check(
            obj, f"null dereference storing .{instr.field_name} in {self.func.name}"
        )
        field_index = int(instr.field_index)
        self._line(f"{obj}.fields[{field_index}] = {self._r(instr.src)}")

    def _aload(self, instr: ir.ALoad) -> None:
        array, index = self._r(instr.array), self._r(instr.index)
        self._array_check(array, index)
        self._line(f"{self._r(instr.dst)} = {array}.values[{index}]")

    def _astore(self, instr: ir.AStore) -> None:
        array, index = self._r(instr.array), self._r(instr.index)
        self._array_check(array, index)
        self._line(f"{array}.values[{index}] = {self._r(instr.src)}")

    def _arrlen(self, instr: ir.ArrLen) -> None:
        array = self._r(instr.array)
        self._null_check(array, f"null array length in {self.func.name}")
        self._line(f"{self._r(instr.dst)} = len({array}.values)")

    def _newobj(self, instr: ir.NewObj) -> None:
        class_info = self.interp.info.class_info(instr.class_name)
        defaults: List[object] = [None] * len(class_info.fields)
        for fld in class_info.fields.values():
            defaults[fld.index] = default_field_value(str(fld.type))
        flag_inits = self.interp.ir_program.alloc_sites[instr.site_id].flag_inits
        site = (instr.class_name, defaults, tuple(flag_inits.items()), instr.site_id)
        self._line(f"{self._r(instr.dst)} = interp._new_object({self._k(site)})")

    def _newarr(self, instr: ir.NewArr) -> None:
        dims = ", ".join(map(self._r, instr.dims))
        self._line("interp._cycles = cy")
        self._line(
            f"{self._r(instr.dst)} = interp._new_array({self._k(instr)}, [{dims}])"
        )
        self._line("cy = interp._cycles")

    def _call(self, instr: ir.Call) -> None:
        name = self.callees.get(instr.target)
        if name is None:
            name = self.callees[instr.target] = self._k(None)
        args = "".join(", " + self._r(a) for a in instr.args)
        call = f"{name}(interp, depth + 1{args})"
        self._line("interp.steps = st; interp._cycles = cy")
        self._line(call if instr.dst is None else f"{self._r(instr.dst)} = {call}")
        self._line("st = interp.steps; cy = interp._cycles")

    def _callbuiltin(self, instr: ir.CallBuiltin) -> None:
        fn = self.interp._builtin_cache[instr.key]
        impl = fn.impl
        if isinstance(fn.return_type, ty.ArrayType):
            impl = _array_result(impl)
        args = "".join(", " + self._r(a) for a in instr.args)
        call = f"{self._k(impl)}(interp.stdout{args})"
        self._line(call if instr.dst is None else f"{self._r(instr.dst)} = {call}")

    def _newtag(self, instr: ir.NewTag) -> None:
        tag_type = self._k(instr.tag_type)
        self._line(f"{self._r(instr.dst)} = interp.heap.new_tag({tag_type})")

    def _bindtag(self, instr: ir.BindTag) -> None:
        self._line(f"{self._r(instr.obj)}.bind_tag({self._r(instr.tag)})")


_EMITTERS = {
    ir.Move: _Compiler._move,
    ir.BinOp: _Compiler._binop,
    ir.UnOp: _Compiler._unop,
    ir.Load: _Compiler._load,
    ir.Store: _Compiler._store,
    ir.ALoad: _Compiler._aload,
    ir.AStore: _Compiler._astore,
    ir.ArrLen: _Compiler._arrlen,
    ir.NewObj: _Compiler._newobj,
    ir.NewArr: _Compiler._newarr,
    ir.Call: _Compiler._call,
    ir.CallBuiltin: _Compiler._callbuiltin,
    ir.NewTag: _Compiler._newtag,
    ir.BindTag: _Compiler._bindtag,
}


def _loop_depths(
    entry: int, succs: Dict[int, List[int]], preds: Dict[int, List[int]]
) -> Dict[int, int]:
    """How many natural loops hold each block; loops that share a header
    count once."""
    loops: Dict[int, set] = {}
    on_path = {entry}
    stack = [(entry, iter(succs[entry]))]
    seen = {entry}
    while stack:
        block_id, targets = stack[-1]
        target = next(targets, None)
        if target is None:
            stack.pop()
            on_path.discard(block_id)
        elif target in on_path:  # a back edge: grow the loop it closes
            body = loops.setdefault(target, {target})
            work = [block_id]
            while work:
                node = work.pop()
                if node not in body:
                    body.add(node)
                    work.extend(preds[node])
        elif target not in seen:
            seen.add(target)
            on_path.add(target)
            stack.append((target, iter(succs[target])))
    depth = dict.fromkeys(succs, 0)
    for body in loops.values():
        for block_id in body:
            depth[block_id] += 1
    return depth


def _array_result(impl):
    """Wraps a builtin that returns a Python list (``String.split``)."""

    def call(stdout, *args):
        return BArray(elem_type="String", values=impl(stdout, *args))

    return call


@dataclass
class _TaskExitSignal:
    exit_id: int
    tag_actions: Dict[int, List[Tuple[str, TagInstance]]]


def make_startup_object(
    heap: Heap, info: ProgramInfo, args: List[str]
) -> BObject:
    """Creates the StartupObject in the ``initialstate`` abstract state."""
    class_info = info.class_info(builtins.STARTUP_CLASS)
    obj = heap.new_object(builtins.STARTUP_CLASS, len(class_info.fields))
    args_field = class_info.fields[builtins.STARTUP_ARGS_FIELD]
    obj.fields[args_field.index] = BArray(elem_type="String", values=list(args))
    obj.set_flag(builtins.STARTUP_FLAG, True)
    return obj
