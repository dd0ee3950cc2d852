"""IR optimizer tests: folding, DCE, threading, and semantic preservation."""

import pytest

from repro.bench import benchmark_names, load_source
from repro.core import compile_program, run_layout, run_sequential, single_core_layout
from repro.ir import instructions as ir
from repro.ir.optimize import (
    _fold_binop,
    _fold_unop,
    optimize_function,
    optimize_program,
)
from repro.ir.builder import lower_program
from repro.lang.parser import parse_program
from repro.sema import analyze


def lowered(source: str):
    info = analyze(parse_program(source))
    return lower_program(info)


def optimized_task(body: str):
    program = lowered(
        "task t(StartupObject s in initialstate) { %s }" % body
    )
    func = program.tasks["t"]
    stats = optimize_function(func)
    return func, stats


def instr_count(func, kind=None):
    total = 0
    for _, instr in func.all_instructions():
        if kind is None or isinstance(instr, kind):
            total += 1
    return total


class TestFolding:
    def test_constant_arithmetic_folds(self):
        func, stats = optimized_task("int x = 2 + 3 * 4; System.printInt(x);")
        assert stats["folded"] >= 2
        assert instr_count(func, ir.BinOp) == 0
        consts = [
            i.args[0].value
            for _, i in func.all_instructions()
            if isinstance(i, ir.CallBuiltin)
        ]
        assert consts == [14]

    def test_float_folds(self):
        func, stats = optimized_task("float x = 1.5 * 2.0; System.printFloat(x);")
        assert instr_count(func, ir.BinOp) == 0

    def test_division_by_zero_not_folded(self):
        func, _ = optimized_task("int x = 1 / 0; System.printInt(x);")
        divisions = [
            i
            for _, i in func.all_instructions()
            if isinstance(i, ir.BinOp) and i.op == "/"
        ]
        assert divisions  # the fault is preserved

    @pytest.mark.parametrize(
        "op, kind, left, right",
        [
            ("/", "int", 1, 0),
            ("%", "int", 1, 0),
            ("/", "float", 1.0, 0.0),
            ("concat", "str", "a", 1),
            ("&&", "int", True, False),
            ("%", "float", 5.0, 2.0),
        ],
    )
    def test_faulting_or_unknown_operations_not_folded(self, op, kind, left, right):
        assert _fold_binop(op, kind, left, right) is None

    def test_folds_agree_with_the_operator_table(self):
        assert _fold_binop("/", "int", -7, 2) == -3
        assert _fold_binop("%", "int", -7, 2) == -1
        assert _fold_binop("==", "ref", None, None) is True
        assert _fold_binop("!=", "ref", "x", "x") is False
        assert _fold_binop("concat", "str", "a", "b") == "ab"
        assert _fold_unop("tostr", "bool", True) == "true"
        assert _fold_unop("tostr", "float", 2) == "2.0"
        assert _fold_unop("neg", "bool", True) is None

    def test_branch_on_constant_folds(self):
        func, _ = optimized_task(
            "boolean dbg = false; if (dbg) System.printInt(1); "
            "System.printInt(2);"
        )
        assert instr_count(func, ir.Branch) == 0
        prints = instr_count(func, ir.CallBuiltin)
        assert prints == 1  # the dead print was removed with its block

    def test_string_concat_folds(self):
        func, _ = optimized_task('String s = "a" + "b"; System.printString(s);')
        assert instr_count(func, ir.BinOp) == 0

    def test_tostr_folds(self):
        func, _ = optimized_task('System.printString("n=" + 5);')
        assert instr_count(func, ir.UnOp) == 0
        assert instr_count(func, ir.BinOp) == 0


class TestDeadCode:
    def test_unused_pure_computation_removed(self):
        func, stats = optimized_task(
            "int a = 5; int b = a * 100; System.printInt(a);"
        )
        assert stats["dead"] >= 1
        assert instr_count(func, ir.BinOp) == 0

    def test_side_effects_kept(self):
        func, _ = optimized_task("System.printInt(1); System.printInt(2);")
        assert instr_count(func, ir.CallBuiltin) == 2

    def test_faulting_load_kept(self):
        # A null load must still fault even when its result is unused.
        func, _ = optimized_task(
            "int[] a = null; int unused = a[0]; System.printInt(1);"
        )
        assert instr_count(func, ir.ALoad) == 1

    def test_tag_registers_kept(self, tagged_compiled):
        import copy

        func = copy.deepcopy(tagged_compiled.ir_program.tasks["startsave"])
        optimize_function(func)
        assert instr_count(func, ir.NewTag) == 1


class TestControlFlow:
    def test_jump_threading_and_compaction(self):
        func, stats = optimized_task(
            "if (1 < 2) { int a = 1; } System.printInt(3);"
        )
        # The constant condition folds; empty blocks thread away.
        assert instr_count(func, ir.Branch) == 0
        assert stats["blocks_removed"] >= 1

    def test_loop_structure_preserved(self):
        func, _ = optimized_task(
            "int acc = 0; for (int i = 0; i < 3; i++) acc = acc + i; "
            "System.printInt(acc);"
        )
        assert instr_count(func, ir.Branch) >= 1  # the loop test remains


class TestSemanticPreservation:
    SMALL_ARGS = {
        "Tracking": ["8", "6"],
        "KMeans": ["4", "6", "2"],
        "MonteCarlo": ["6", "25"],
        "FilterBank": ["5", "16"],
        "Fractal": ["10"],
        "Series": ["6", "8"],
        "Keyword": ["5"],
    }

    @pytest.mark.parametrize("name", benchmark_names())
    def test_benchmarks_unchanged_and_not_slower(self, name):
        source = load_source(name)
        args = self.SMALL_ARGS[name]
        plain = compile_program(source)
        fast = compile_program(source, optimize=True)
        plain_seq = run_sequential(plain, args)
        fast_seq = run_sequential(fast, args)
        assert fast_seq.stdout == plain_seq.stdout
        assert fast_seq.cycles <= plain_seq.cycles

    def test_task_runtime_unchanged(self):
        source = load_source("Keyword")
        plain = compile_program(source)
        fast = compile_program(source, optimize=True)
        plain_run = run_layout(plain, single_core_layout(plain), ["5"])
        fast_run = run_layout(fast, single_core_layout(fast), ["5"])
        assert fast_run.stdout == plain_run.stdout
        assert fast_run.invocations == plain_run.invocations
        assert fast_run.total_cycles <= plain_run.total_cycles

    def test_optimize_program_reports_stats(self):
        program = lowered(
            "class A { int f() { return 2 * 21; } } "
            "task startup(StartupObject s in initialstate) "
            "{ taskexit(s: initialstate := false); }"
        )
        stats = optimize_program(program)
        assert stats["folded"] >= 1


class TestCopyPropagationSoundness:
    """Hand-crafted IR for the invalidation corner cases."""

    @staticmethod
    def run_blocks(instrs):
        func = ir.IRFunction(
            name="f",
            kind="method",
            param_names=["this"],
            num_regs=10,
            blocks=[ir.BasicBlock(0, instrs)],
            entry=0,
        )
        optimize_function(func)
        return func

    def test_copy_invalidated_by_source_overwrite(self):
        # r1 = r0; r0 = 7; return r1  -- r1 must NOT become 7.
        func = self.run_blocks(
            [
                ir.Move(ir.Reg(1), ir.Reg(0)),
                ir.Move(ir.Reg(0), ir.Const(7)),
                ir.Ret(ir.Reg(1)),
            ]
        )
        ret = func.blocks[0].instructions[-1]
        assert isinstance(ret, ir.Ret)
        assert ret.src != ir.Const(7)

    def test_constant_through_copy_chain(self):
        # r1 = 5; r2 = r1; return r2  -->  return 5
        func = self.run_blocks(
            [
                ir.Move(ir.Reg(1), ir.Const(5)),
                ir.Move(ir.Reg(2), ir.Reg(1)),
                ir.Ret(ir.Reg(2)),
            ]
        )
        ret = func.blocks[0].instructions[-1]
        assert ret.src == ir.Const(5)

    def test_swap_pattern_terminates(self):
        # r1 = r2; r2 = r1 — resolve() must not loop forever.
        func = self.run_blocks(
            [
                ir.Move(ir.Reg(1), ir.Reg(2)),
                ir.Move(ir.Reg(2), ir.Reg(1)),
                ir.Ret(ir.Reg(2)),
            ]
        )
        assert isinstance(func.blocks[0].instructions[-1], ir.Ret)

    def test_store_not_removed(self):
        func = self.run_blocks(
            [
                ir.Store(ir.Reg(0), "x", 0, ir.Const(1)),
                ir.Ret(None),
            ]
        )
        assert instr_count(func, ir.Store) == 1
