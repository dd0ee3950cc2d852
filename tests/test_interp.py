"""Interpreter semantics and cycle-accounting tests."""

import hashlib
import json
import keyword
import os
import re
import tokenize

import pytest

from repro.bench.suite import get_spec, load_benchmark, load_source
from repro.core import compile_program, run_sequential, single_core_layout
from repro.lang.errors import RuntimeBambooError
from repro.ir.ops import HELPERS, int_div, int_rem
from repro.runtime.interp import Interpreter, _Compiler, make_startup_object
from repro.runtime.machine import MachineConfig, ManyCoreMachine
from repro.runtime.objects import BArray, Heap


def run_expr_program(body: str, args=("0",)):
    """Runs SeqMain.run with the given body; returns (result, stdout)."""
    source = (
        "class SeqMain { SeqMain() { } void run(String[] args) { %s } }\n"
        "task startup(StartupObject s in initialstate) "
        "{ taskexit(s: initialstate := false); }" % body
    )
    compiled = compile_program(source)
    result = run_sequential(compiled, list(args))
    return result


def run_and_print(body: str, args=("0",)) -> str:
    return run_expr_program(body, args).stdout


class TestIntegerSemantics:
    def test_arithmetic(self):
        assert run_and_print("System.printInt(2 + 3 * 4 - 1);") == "13"

    def test_division_truncates_toward_zero(self):
        assert run_and_print("System.printInt(-7 / 2);") == "-3"
        assert run_and_print("System.printInt(7 / -2);") == "-3"

    def test_remainder_sign_follows_dividend(self):
        assert run_and_print("System.printInt(-7 % 2);") == "-1"
        assert run_and_print("System.printInt(7 % -2);") == "1"

    def test_division_by_zero_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_expr_program("int x = 1 / 0;")

    def test_modulo_by_zero_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_expr_program("int x = 1 % 0;")

    def test_int_div_helper_matches_java(self):
        assert int_div(7, 2) == 3
        assert int_div(-7, 2) == -3
        assert int_div(7, -2) == -3
        assert int_div(-7, -2) == 3
        assert int_rem(-7, 2) == -1
        assert int_rem(7, -2) == 1
        assert int_rem(-7, -2) == -1
        assert int_rem(-6, 3) == 0
        assert int_rem(-2**63, -1) == 0
        for a in range(-30, 31):
            for b in (-7, -3, -1, 1, 4):
                assert int_rem(a, b) == a - b * int_div(a, b)
        for helper in (int_div, int_rem):
            for a in (7, 0, -7):
                with pytest.raises(RuntimeBambooError) as info:
                    helper(a, 0)
                assert str(info.value) == "integer division by zero"

    def test_comparison_chain(self):
        assert run_and_print("if (3 <= 3 && 3 != 4) System.printInt(1);") == "1"


class TestFloatSemantics:
    def test_float_arithmetic(self):
        out = run_and_print("System.printFloat(0.5 * 4.0);")
        assert float(out) == 2.0

    def test_float_division_by_zero_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_expr_program("float x = 1.0 / 0.0;")

    def test_cast_truncates(self):
        assert run_and_print("System.printInt((int) 2.9);") == "2"
        assert run_and_print("System.printInt((int) -2.9);") == "-2"

    def test_promotion_in_mixed_expression(self):
        out = run_and_print("System.printFloat(1 + 0.5);")
        assert float(out) == 1.5

    def test_math_builtins(self):
        out = run_and_print("System.printFloat(Math.sqrt(16.0));")
        assert float(out) == 4.0


class TestStrings:
    def test_concat_renders_values(self):
        out = run_and_print('System.printString("v=" + 3 + " b=" + true);')
        assert out == "v=3 b=true"

    def test_length_and_charat(self):
        out = run_and_print('System.printInt("abc".length() + "a".charAt(0));')
        assert out == str(3 + ord("a"))

    def test_split(self):
        out = run_and_print(
            'String[] w = "a bb  ccc".split(); System.printInt(w.length);'
        )
        assert out == "3"

    def test_equals_compares_content(self):
        out = run_and_print(
            'String a = "x" + 1; if (a.equals("x1")) System.printInt(1);'
        )
        assert out == "1"

    def test_parse_int(self):
        out = run_and_print(
            "System.printInt(Integer.parseInt(args[0]) + 1);", args=("41",)
        )
        assert out == "42"


class TestArraysAndObjects:
    def test_array_defaults(self):
        out = run_and_print(
            "int[] a = new int[3]; float[] f = new float[1]; boolean[] b = new boolean[1];"
            "System.printInt(a[0]); System.printFloat(f[0]);"
        )
        assert out == "00.0"

    def test_2d_array(self):
        out = run_and_print(
            "int[][] m = new int[2][3]; m[1][2] = 7; System.printInt(m[1][2]);"
        )
        assert out == "7"

    def test_out_of_bounds_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_expr_program("int[] a = new int[2]; int x = a[2];")

    def test_negative_index_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_expr_program("int[] a = new int[2]; a[-1] = 0;")

    def test_null_array_access_raises(self):
        with pytest.raises(RuntimeBambooError):
            run_expr_program("int[] a = null; int x = a[0];")

    def test_null_field_access_raises(self):
        source = (
            "class A { int x; } "
            "class SeqMain { SeqMain() { } void run(String[] args) "
            "{ A a = null; int v = a.x; } } "
            "task startup(StartupObject s in initialstate) "
            "{ taskexit(s: initialstate := false); }"
        )
        compiled = compile_program(source)
        with pytest.raises(RuntimeBambooError):
            run_sequential(compiled, ["0"])

    def test_object_field_defaults(self):
        source = (
            "class A { int x; float y; boolean b; String s; } "
            "class SeqMain { SeqMain() { } void run(String[] args) { "
            "A a = new A(); System.printInt(a.x); "
            "if (a.s == null) System.printInt(1); } } "
            "task startup(StartupObject s in initialstate) "
            "{ taskexit(s: initialstate := false); }"
        )
        compiled = compile_program(source)
        assert run_sequential(compiled, ["0"]).stdout == "01"


class TestMethodsAndRecursion:
    def test_recursion(self):
        source = (
            "class SeqMain { SeqMain() { } "
            "int fib(int n) { if (n < 2) return n; "
            "return this.fib(n - 1) + this.fib(n - 2); } "
            "void run(String[] args) { System.printInt(this.fib(10)); } } "
            "task startup(StartupObject s in initialstate) "
            "{ taskexit(s: initialstate := false); }"
        )
        compiled = compile_program(source)
        assert run_sequential(compiled, ["0"]).stdout == "55"

    def test_runaway_recursion_raises(self):
        source = (
            "class SeqMain { SeqMain() { } "
            "int loop(int n) { return this.loop(n + 1); } "
            "void run(String[] args) { System.printInt(this.loop(0)); } } "
            "task startup(StartupObject s in initialstate) "
            "{ taskexit(s: initialstate := false); }"
        )
        compiled = compile_program(source)
        with pytest.raises(RuntimeBambooError):
            run_sequential(compiled, ["0"])

    def test_mutual_calls(self):
        out = run_and_print("System.printInt(1);")
        assert out == "1"


class TestCycleAccounting:
    def test_cycles_positive_and_monotone_in_work(self):
        small = run_expr_program(
            "int acc = 0; for (int i = 0; i < 10; i++) acc = acc + i;"
        )
        large = run_expr_program(
            "int acc = 0; for (int i = 0; i < 100; i++) acc = acc + i;"
        )
        assert 0 < small.cycles < large.cycles

    def test_deterministic_cycles(self):
        first = run_expr_program("float x = Math.sin(1.0) * 2.0;")
        second = run_expr_program("float x = Math.sin(1.0) * 2.0;")
        assert first.cycles == second.cycles

    def test_float_work_costs_more_than_int(self):
        int_run = run_expr_program(
            "int acc = 0; for (int i = 0; i < 50; i++) acc = acc + 3;"
        )
        float_run = run_expr_program(
            "float acc = 0.0; for (int i = 0; i < 50; i++) acc = acc + 3.0;"
        )
        assert float_run.cycles > int_run.cycles


class TestTaskExecution:
    def test_task_effects(self, keyword_compiled):
        heap = Heap()
        interp = Interpreter(keyword_compiled.ir_program, keyword_compiled.info, heap)
        startup = make_startup_object(heap, keyword_compiled.info, ["3"])
        effects = interp.run_task("startup", [startup])
        assert effects.exit_id == 1
        assert effects.cycles > 0
        classes = sorted({r.obj.class_name for r in effects.new_objects})
        assert classes == ["Results", "Text"]
        texts = [r for r in effects.new_objects if r.obj.class_name == "Text"]
        assert len(texts) == 3
        # Allocation-site flags applied at creation time.
        assert all("process" in r.obj.flags for r in texts)

    def test_flag_updates_not_applied_by_interpreter(self, keyword_compiled):
        heap = Heap()
        interp = Interpreter(keyword_compiled.ir_program, keyword_compiled.info, heap)
        startup = make_startup_object(heap, keyword_compiled.info, ["1"])
        interp.run_task("startup", [startup])
        # The runtime commits flag changes, not the interpreter.
        assert "initialstate" in startup.flags

    def test_startup_object_args(self, keyword_compiled):
        heap = Heap()
        startup = make_startup_object(heap, keyword_compiled.info, ["a", "b"])
        args_field = startup.fields[0]
        assert args_field.values == ["a", "b"]
        assert startup.flags == {"initialstate"}


# -- exactness over the benchmark suite -----------------------------------------
#
# Every fig7/fig9 number rests on the interpreter charging exactly these
# cycles and steps. Sequential and 1-core columns are Figure 7's
# (benchmarks/out/fig7_speedup.txt); Keyword has no Figure 7 row.

_EXPECTED_STDOUT = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "expected_stdout.json"
)

#: name -> (sequential cycles, 1-core Bamboo cycles, 1-core steps)
SUITE_EXACT = {
    "Tracking": (2_134_227, 2_169_806, 803_380),
    "KMeans": (11_870_142, 11_958_468, 5_112_587),
    "MonteCarlo": (4_683_111, 4_716_731, 1_096_543),
    "FilterBank": (9_694_148, 9_709_540, 3_429_984),
    "Fractal": (10_632_351, 10_683_496, 3_666_823),
    "Series": (5_209_041, 5_260_189, 674_087),
    "Keyword": (180_148, 201_873, 56_793),
}

KEYWORD_STDOUT_SHA256 = (
    "71460bcec55d6a313df2ea6d80edb6a0f36d78b71c530094549d0c4711c297a6"
)


def _stdout_digests():
    with open(_EXPECTED_STDOUT) as handle:
        programs = json.load(handle)["programs"]
    digests = {name: entry["sha256"] for name, entry in programs.items()}
    digests["Keyword"] = KEYWORD_STDOUT_SHA256
    return digests


#: variant -> (optimize, bounds_checks)
VARIANTS = {"optimized": (True, False), "bounds": (False, True), "both": (True, True)}

#: name -> {variant: (sequential cycles, 1-core Bamboo cycles, 1-core steps)}
SUITE_VARIANTS = {
    "Tracking": {
        "optimized": (2_106_471, 2_142_049, 775_623),
        "bounds": (2_345_431, 2_381_010, 803_380),
        "both": (2_317_675, 2_353_253, 775_623),
    },
    "KMeans": {
        "optimized": (11_679_391, 11_767_657, 4_921_776),
        "bounds": (12_631_332, 12_718_666, 5_112_587),
        "both": (12_440_581, 12_527_855, 4_921_776),
    },
    "MonteCarlo": {
        "optimized": (4_582_019, 4_615_514, 995_326),
        "bounds": (4_685_723, 4_719_343, 1_096_543),
        "both": (4_584_631, 4_618_126, 995_326),
    },
    "FilterBank": {
        "optimized": (9_528_856, 9_544_247, 3_264_691),
        "bounds": (10_106_472, 10_121_864, 3_429_984),
        "both": (9_941_180, 9_956_571, 3_264_691),
    },
    "Fractal": {
        "optimized": (10_487_379, 10_538_337, 3_521_664),
        "bounds": (10_632_353, 10_683_498, 3_666_823),
        "both": (10_487_381, 10_538_339, 3_521_664),
    },
    "Series": {
        "optimized": (5_137_989, 5_188_950, 602_848),
        "bounds": (5_209_045, 5_260_193, 674_087),
        "both": (5_137_993, 5_188_954, 602_848),
    },
}


def _one_core_run(compiled, args, config=None):
    machine = ManyCoreMachine(compiled, single_core_layout(compiled), config=config)
    result = machine.run(list(args))
    return result, machine.interp.steps


class TestSuiteExactness:
    @pytest.mark.parametrize("name", sorted(SUITE_EXACT))
    def test_cycles_steps_and_stdout(self, name):
        seq_cycles, one_cycles, one_steps = SUITE_EXACT[name]
        spec = get_spec(name)
        compiled = load_benchmark(name)
        digest = _stdout_digests()[name]

        seq = run_sequential(compiled, list(spec.args))
        assert seq.cycles == seq_cycles
        assert hashlib.sha256(seq.stdout.encode()).hexdigest() == digest

        result, steps = _one_core_run(compiled, spec.args)
        assert result.total_cycles == one_cycles
        assert steps == one_steps
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("name", sorted(SUITE_VARIANTS))
    def test_optimized_and_bounds_checked(self, name, variant):
        """The optimizer rewrites the CFG, and bounds checks change every
        array access's cost; each program is pinned under both."""
        optimize, bounds_checks = VARIANTS[variant]
        seq_cycles, one_cycles, one_steps = SUITE_VARIANTS[name][variant]
        spec = get_spec(name)
        if optimize:
            compiled = compile_program(
                load_source(name), spec.filename, optimize=True
            )
        else:
            compiled = load_benchmark(name)
        digest = _stdout_digests()[name]

        seq = run_sequential(compiled, list(spec.args), bounds_checks=bounds_checks)
        assert seq.cycles == seq_cycles
        assert hashlib.sha256(seq.stdout.encode()).hexdigest() == digest

        result, steps = _one_core_run(
            compiled, spec.args, config=MachineConfig(bounds_checks=bounds_checks)
        )
        assert (result.total_cycles, steps) == (one_cycles, one_steps)
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


# -- control flow ----------------------------------------------------------------
#
# Shapes past Python's static limits (20 nested blocks, 100 indentation
# levels), which code generated per function has to stay under. Each
# number was taken from the segment-loop interpreter that preceded the
# compiled functions.


def _nested_ifs(depth=150):
    body = ""
    for i in reversed(range(depth)):
        body = (
            "if ((acc + %d) %% 97 != 0) { acc = (acc * 3 + %d) %% 10007; %s} "
            "else { acc = acc - %d; } " % (i, i, body, i)
        )
    return (
        "void run(String[] args) { "
        "for (int k = 0; k < Integer.parseInt(args[0]); k++) { "
        "int acc = k * 37 + 5; %s "
        'System.printInt(acc); System.printString(" "); } }' % body
    )


def _nested_loops(depth=30):
    body = "hits = hits + 1;"
    for i in reversed(range(depth)):
        body = (
            "for (int i%d = 0; i%d < 3; i%d++) { if (i%d != 1) continue; %s } "
            % (i, i, i, i, body)
        )
    return (
        "void run(String[] args) { int hits = 0; %s System.printInt(hits); }"
        % body
    )


_LOOP_EXITS = (
    "int find(int n, int target) { int steps = 0; "
    "for (int i = 0; i < n && steps < 1000; i++) { int j = i; "
    "while (j > 0 || i == 0) { steps = steps + 1; "
    "if (j % 3 == 1) { j = j - 1; continue; } "
    "if (i * j == target) return i * 100 + j; "
    "if (j == 7 && i > 9) break; "
    "j = j - 2; if (i == 0) break; } "
    "if (steps > 500 || i == n - 1) break; } "
    "return 0 - steps; } "
    "void run(String[] args) { "
    "System.printInt(this.find(Integer.parseInt(args[0]), 121)); "
    "System.printInt(this.find(12, 9999)); }"
)


def _else_if_chain(arms=120):
    chain = " else ".join(
        "if (x == %d) { acc = acc + %d; }" % (3 * k, k) for k in range(arms)
    )
    return (
        "void run(String[] args) { int acc = 0; "
        "int x = Integer.parseInt(args[0]); %s else { acc = 0 - 1; } "
        "System.printInt(acc); }" % chain
    )


#: name -> (SeqMain members, args, stdout, {optimize: (cycles, steps)})
CONTROL_FLOW = {
    "nested_ifs": (
        _nested_ifs(), "6", "325 8912 6273 7751 3143 906 ",
        {False: (32_207, 4_872), True: (31_680, 4_345)},
    ),
    "nested_loops": (
        _nested_loops(), "0", "1",
        {False: (1_065, 845), True: (976, 756)},
    ),
    "loop_exits": (
        _LOOP_EXITS, "40", "1111-45",
        {False: (4_768, 2_046), True: (4_703, 1_981)},
    ),
    "else_if_chain": (
        _else_if_chain(), "300", "100",
        {False: (444, 311), True: (344, 211)},
    ),
}


class TestControlFlow:
    @pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
    @pytest.mark.parametrize("name", sorted(CONTROL_FLOW))
    def test_stdout_cycles_and_steps(self, name, optimize):
        members, arg, stdout, counts = CONTROL_FLOW[name]
        compiled = compile_program(
            "class SeqMain { SeqMain() { } %s } "
            "task startup(StartupObject s in initialstate) "
            "{ taskexit(s: initialstate := false); }" % members,
            optimize=optimize,
        )
        seq = run_sequential(compiled, [arg])
        heap = Heap()
        interp = Interpreter(compiled.ir_program, compiled.info, heap)
        receiver = heap.new_object("SeqMain", 0)
        argv = BArray(elem_type="String", values=[arg])
        _, cycles = interp.run_method("SeqMain.run", [receiver, argv])
        assert seq.stdout == interp.output() == stdout
        assert seq.cycles == cycles
        assert (cycles, interp.steps) == counts[optimize]


# -- error paths --------------------------------------------------------------


def _seq_program(members: str):
    return compile_program(
        "class A { int x; } "
        "class SeqMain { SeqMain() { } %s } "
        "task startup(StartupObject s in initialstate) "
        "{ taskexit(s: initialstate := false); }" % members
    )


def _error_message(members: str) -> str:
    with pytest.raises(RuntimeBambooError) as info:
        run_sequential(_seq_program(members), ["0"])
    return str(info.value)


def _run_body(body: str) -> str:
    return _error_message("void run(String[] args) { %s }" % body)


class TestStepBudget:
    MEMBERS = (
        "int spin(int n) { int acc = 0; "
        "for (int i = 0; i < n; i++) acc = acc + i; return acc; } "
        "void run(String[] args) { int a = this.spin(200); int b = 0; "
        "for (int i = 0; i < 50; i++) b = b + a; }"
    )

    def run_with_budget(self, max_steps):
        compiled = _seq_program(self.MEMBERS)
        heap = Heap()
        interp = Interpreter(
            compiled.ir_program, compiled.info, heap, max_steps=max_steps
        )
        receiver = heap.new_object("SeqMain", 0)
        argv = BArray(elem_type="String", values=["0"])
        interp.run_method("SeqMain.run", [receiver, argv])
        return interp.steps

    def test_budget_is_exact(self):
        total = self.run_with_budget(10_000)
        assert self.run_with_budget(total) == total
        with pytest.raises(RuntimeBambooError):
            self.run_with_budget(total - 1)

    def test_exhausted_inside_the_callee_names_it(self):
        with pytest.raises(RuntimeBambooError) as info:
            self.run_with_budget(100)
        assert str(info.value) == "instruction budget exhausted in SeqMain.spin"

    def test_exhausted_after_the_call_returns_names_the_caller(self):
        total = self.run_with_budget(10_000)
        with pytest.raises(RuntimeBambooError) as info:
            self.run_with_budget(total - 1)
        assert str(info.value) == "instruction budget exhausted in SeqMain.run"


class TestErrorMessages:
    def test_null_field_load(self):
        assert _run_body("A a = null; int v = a.x;") == (
            "null dereference loading .x in SeqMain.run"
        )

    def test_null_field_store(self):
        assert _run_body("A a = null; a.x = 1;") == (
            "null dereference storing .x in SeqMain.run"
        )

    def test_null_array_access(self):
        assert _run_body("int[] a = null; int v = a[0];") == (
            "null array access in SeqMain.run"
        )

    def test_null_array_length(self):
        assert _run_body("int[] a = null; int v = a.length;") == (
            "null array length in SeqMain.run"
        )

    def test_index_past_the_end(self):
        assert _run_body("int[] a = new int[2]; int v = a[2];") == (
            "array index 2 out of bounds (length 2) in SeqMain.run"
        )

    def test_negative_index_store(self):
        assert _run_body("int[] a = new int[2]; a[-1] = 0;") == (
            "array index -1 out of bounds (length 2) in SeqMain.run"
        )

    def test_division_by_zero(self):
        assert _run_body("int z = 0; int v = 1 / z;") == "integer division by zero"
        assert _run_body("int z = 0; int v = 1 % z;") == "integer division by zero"
        assert _run_body("float z = 0.0; float v = 1.0 / z;") == (
            "float division by zero"
        )

    def test_call_depth(self):
        message = _error_message(
            "int loop(int n) { return this.loop(n + 1); } "
            "void run(String[] args) { System.printInt(this.loop(0)); }"
        )
        assert message == "call depth exceeded in SeqMain.loop"

    def test_recursion_runs_up_to_the_depth_limit(self):
        """Each call costs Python frames; the interpreter's own depth
        limit, not Python's recursion limit, must be what stops it."""
        compiled = _seq_program(
            "int down(int n) { if (n == 0) return 0; return 1 + this.down(n - 1); } "
            "void run(String[] args) "
            "{ System.printInt(this.down(Integer.parseInt(args[0]))); }"
        )
        assert run_sequential(compiled, ["399"]).stdout == "399"
        with pytest.raises(RuntimeBambooError) as info:
            run_sequential(compiled, ["400"])
        assert str(info.value) == "call depth exceeded in SeqMain.down"


class TestNullChecks:
    """Generated code null-checks a register once per emitted block, until
    the block assigns it again."""

    def test_each_register_is_checked_once_per_block(self):
        # A check at every access emitted 28 here, 22 of them on r0.
        compiled = load_benchmark("KMeans")
        interp = Interpreter(compiled.ir_program, compiled.info)
        func = compiled.ir_program.methods["Work.assignInto"]
        checks = re.findall(
            r"if (r\d+) is None: raise", _Compiler(interp, func).source()
        )
        assert (len(checks), checks.count("r0")) == (14, 12)

    def test_first_access_in_a_block_raises_its_own_message(self):
        assert _run_body("A a = null; a.x = 1; int v = a.x;") == (
            "null dereference storing .x in SeqMain.run"
        )

    def test_a_reassigned_register_is_checked_again(self):
        assert _run_body(
            "A a = new A(); int v = a.x; a = null; int w = a.x;"
        ) == "null dereference loading .x in SeqMain.run"


class TestProgramTextStaysData:
    def test_string_constant_prints_verbatim(self):
        literal = r'"q\"uote\\ back\\slash {brace} }{ %s {0} \n line\" + x"'
        out = run_and_print(f"System.printString({literal});")
        assert out == 'q"uote\\ back\\slash {brace} }{ %s {0} \n line" + x'

    def test_generated_source_holds_no_program_text(self):
        """Compiled functions contain only integers, fixed names and the
        operator table's tokens, whatever text the program carries."""
        fixed = set(HELPERS) | {
            "interp", "depth", "Fault", "array_fault",
            "stdout", "_new_object", "_new_array", "heap", "new_tag",
            "fields", "values", "bind_tag", "len", "float", "str", "repr",
            "f", "st", "cy", "mx", "b", "steps", "_cycles", "max_steps",
            "task_exit",
        }
        layout = {
            tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER,
        }
        for name in sorted(SUITE_EXACT):
            compiled = load_benchmark(name)
            interp = Interpreter(compiled.ir_program, compiled.info)
            program = compiled.ir_program
            for func in [*program.methods.values(), *program.tasks.values()]:
                source = _Compiler(interp, func).source()
                lines = iter(source.splitlines(keepends=True))
                for token in tokenize.generate_tokens(lambda: next(lines, "")):
                    if token.type == tokenize.NAME:
                        assert (
                            token.string in fixed
                            or keyword.iskeyword(token.string)
                            or re.fullmatch(r"[rK]\d+", token.string)
                        ), token
                    elif token.type == tokenize.NUMBER:
                        assert token.string.isdigit(), token
                    elif token.type == tokenize.STRING:
                        assert token.string in ("'true'", "'false'"), token
                    else:
                        assert token.type in layout, token
