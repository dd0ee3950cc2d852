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

Execution is decode-once. The first time a function runs on an
interpreter, its blocks are split into straight-line *segments*, each
ending at a terminator or right after a :class:`~repro.ir.instructions.Call`.
A segment's static cycle cost and step count are summed at decode time
(from :mod:`repro.ir.costs` only), its constants move into a per-function
frame template so every operand is a register index, and its non-terminator
instructions compile into one generated Python function. The run loop then
charges cycles and steps once per segment, makes one call per segment and
handles the terminator itself; only array allocation adds a dynamic cost.
Generated source holds nothing but integers, fixed helper names and
operator expressions from :mod:`repro.ir.ops`: constants, messages and IR
objects reach it through the frame template or a side table (``K<n>``).
"""

from __future__ import annotations

import io as _io
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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

# Segment terminators, as the run loop sees them.
_BRANCH, _GOTO, _RET, _EXIT, _TRAP = range(5)


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


class _Code:
    """One IR function as decoded for one interpreter.

    ``entry`` is the entry segment (None until the first run decodes the
    function). A segment is the list ``[steps, cycles, body, term, x, y,
    z]``: ``body(interp, regs, depth)`` runs its non-terminator
    instructions (None when there are none), and ``term`` picks the
    operands — ``_BRANCH``: condition slot ``x``, successors ``y``/``z``;
    ``_GOTO``: successor ``y``; ``_RET``: result slot ``x`` (or None);
    ``_EXIT``: exit id ``x``; ``_TRAP``: message ``x``.
    """

    __slots__ = ("func", "template", "entry")

    def __init__(self, func: ir.IRFunction):
        self.func = func
        self.template: List[object] = []
        self.entry: Optional[list] = None


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
        #: Decoded functions, by ``id`` of their IRFunction. Generated code
        #: cannot be pickled, so it lives here and never on the IR.
        self._codes: Dict[int, _Code] = {}
        # Per-run state:
        self._cycles = 0
        self._new_objects: List[NewObjectRecord] = []

    # -- public API ----------------------------------------------------------

    def run_method(self, qualified_name: str, args: List[object]) -> Tuple[object, int]:
        """Runs a method/constructor; returns ``(return value, cycles)``."""
        code = self._code(self.ir_program.methods[qualified_name])
        start = self._cycles
        value = self._run(code, list(args), depth=0)
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
        code = self._code(self.ir_program.tasks[task_name])
        start_cycles = self._cycles
        saved_new = self._new_objects
        self._new_objects = []
        exit_state = self._run(code, list(params), depth=0)
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

    def _code(self, func: ir.IRFunction) -> _Code:
        code = self._codes.get(id(func))
        if code is None:
            code = self._codes[id(func)] = _Code(func)
        return code

    def _run(self, code: _Code, args: List[object], depth: int):
        if depth > _MAX_CALL_DEPTH:
            raise RuntimeBambooError(f"call depth exceeded in {code.func.name}")
        seg = code.entry or self._decode(code)
        regs = code.template[:]
        regs[: len(args)] = args
        max_steps = self.max_steps
        while True:
            steps, cycles, body, term, x, y, z = seg
            steps += self.steps
            if steps > max_steps:
                raise RuntimeBambooError(
                    f"instruction budget exhausted in {code.func.name}"
                )
            self.steps = steps
            self._cycles += cycles
            if body is not None:
                body(self, regs, depth)
            if term == _BRANCH:
                seg = y if regs[x] else z
            elif term == _GOTO:
                seg = y
            elif term == _RET:
                return None if x is None else regs[x]
            elif term == _EXIT:
                return self._task_exit(code.func, x, regs)
            else:
                raise RuntimeBambooError(x)

    def _task_exit(self, func: ir.IRFunction, exit_id: int, regs: List[object]):
        tag_actions: Dict[int, List[Tuple[str, TagInstance]]] = {}
        for param_index, actions in func.exits[exit_id].tag_updates.items():
            resolved = []
            for action in actions:
                tag = regs[action.tag_reg.index]
                if not isinstance(tag, TagInstance):
                    raise RuntimeBambooError(
                        "taskexit tag action on an unbound tag variable"
                    )
                resolved.append((action.op, tag))
            tag_actions[param_index] = resolved
        return _TaskExitSignal(exit_id=exit_id, tag_actions=tag_actions)

    def _decode(self, code: _Code) -> list:
        decoder = _Decoder(self, code.func)
        # Only per-function constants go here: the interpreter reaches the
        # bodies as an argument, so a run's heap is freed with it.
        namespace = dict(
            ops.HELPERS, Fault=RuntimeBambooError, array_fault=_array_fault
        )
        namespace.update(
            (f"K{index}", value) for index, value in enumerate(decoder.side)
        )
        exec(compile(decoder.source(), "<decoded IR>", "exec"), namespace)
        for index in decoder.bodies:
            decoder.segments[index][2] = namespace[f"s{index}"]
        code.template = decoder.template
        code.entry = decoder.entry
        return code.entry

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


class _Decoder:
    """Decodes one IR function: segments, frame template and source.

    ``segments`` are the run-loop lists; each index in ``bodies`` has a
    generated body ``s<index>`` in :meth:`source`, and ``side`` holds the
    objects generated code names ``K<n>``.
    """

    def __init__(self, interp: Interpreter, func: ir.IRFunction):
        self.interp = interp
        self.func = func
        self.template: List[object] = [None] * func.num_regs
        self.side: List[object] = []
        self.bodies: List[int] = []
        self._const_slots: Dict[tuple, int] = {}
        self._lines: List[str] = []
        self._name = self._k(func.name)

        spans = []  # (body instructions, terminator or None for fall-through)
        first: List[int] = []  # block position -> its first segment
        for block in func.blocks:
            first.append(len(spans))
            body: List[ir.Instr] = []
            for instr in block.instructions:
                if isinstance(instr, ir.TERMINATORS):
                    spans.append((body, instr))
                    break
                body.append(instr)
                if type(instr) is ir.Call:
                    spans.append((body, None))
                    body = []
            else:
                raise RuntimeBambooError(
                    f"{func.name}: block B{block.block_id} lacks a terminator"
                )

        self.segments: List[list] = []
        for index, (body, term) in enumerate(spans):
            counted = body if term is None else body + [term]
            if body:
                self._lines.append(f"def s{index}(interp, regs, depth):")
                for instr in body:
                    _EMITTERS[type(instr)](self, instr)
                self.bodies.append(index)
            self.segments.append(
                [len(counted), sum(map(self._cost, counted)), None]
                + self._terminator(term)
            )
        for index, (_, term) in enumerate(spans):
            seg = self.segments[index]
            if term is None:
                seg[5] = self.segments[index + 1]
            elif type(term) is ir.Jump:
                seg[5] = self.segments[first[term.target]]
            elif type(term) is ir.Branch:
                seg[5] = self.segments[first[term.true_target]]
                seg[6] = self.segments[first[term.false_target]]
        self.entry = self.segments[first[func.entry]]

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"

    def _slot(self, operand: ir.Operand) -> int:
        """The register index of an operand; constants get template slots."""
        if type(operand) is ir.Reg:
            return int(operand.index)
        value = operand.value
        key = (type(value), repr(value))
        slot = self._const_slots.get(key)
        if slot is None:
            slot = self._const_slots[key] = len(self.template)
            self.template.append(value)
        return slot

    def _r(self, operand: ir.Operand) -> str:
        return f"regs[{self._slot(operand)}]"

    def _k(self, value: object) -> str:
        """Names a side-table entry for generated code."""
        self.side.append(value)
        return f"K{len(self.side) - 1}"

    def _terminator(self, term: Optional[ir.Instr]) -> list:
        if term is None or type(term) is ir.Jump:
            return [_GOTO, None, None, None]
        if type(term) is ir.Branch:
            return [_BRANCH, self._slot(term.cond), None, None]
        if type(term) is ir.Ret:
            slot = None if term.src is None else self._slot(term.src)
            return [_RET, slot, None, None]
        if type(term) is ir.Exit:
            return [_EXIT, term.exit_id, None, None]
        return [_TRAP, term.message, None, None]

    def _cost(self, instr: ir.Instr) -> int:
        cost = costs.instruction_cost(instr)
        if type(instr) is ir.CallBuiltin:
            cost += self.interp._builtin_cache[instr.key].cost
        elif type(instr) in (ir.ALoad, ir.AStore):
            cost += self.interp._array_access_cost_extra
        return cost

    # -- segment bodies ------------------------------------------------------------

    def _line(self, text: str) -> None:
        self._lines.append("    " + text)

    def _null_check(self, value: str, message: str) -> None:
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
        self._line(
            f"{self._r(instr.dst)} = interp._new_array({self._k(instr)}, [{dims}])"
        )

    def _call(self, instr: ir.Call) -> None:
        callee = self.interp._code(self.interp.ir_program.methods[instr.target])
        args = ", ".join(map(self._r, instr.args))
        call = f"interp._run({self._k(callee)}, [{args}], depth + 1)"
        self._line(call if instr.dst is None else f"{self._r(instr.dst)} = {call}")

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
    ir.Move: _Decoder._move,
    ir.BinOp: _Decoder._binop,
    ir.UnOp: _Decoder._unop,
    ir.Load: _Decoder._load,
    ir.Store: _Decoder._store,
    ir.ALoad: _Decoder._aload,
    ir.AStore: _Decoder._astore,
    ir.ArrLen: _Decoder._arrlen,
    ir.NewObj: _Decoder._newobj,
    ir.NewArr: _Decoder._newarr,
    ir.Call: _Decoder._call,
    ir.CallBuiltin: _Decoder._callbuiltin,
    ir.NewTag: _Decoder._newtag,
    ir.BindTag: _Decoder._bindtag,
}


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
