"""Public API of the Bamboo reproduction.

Typical use::

    from repro import (
        RunOptions, SynthesisOptions,
        compile_program, profile_program, run_layout, synthesize_layout,
    )

    compiled = compile_program(source)
    profile = profile_program(compiled, args=["8"])          # 1-core bootstrap
    report = synthesize_layout(
        compiled, profile, num_cores=62,
        options=SynthesisOptions(workers=4),                 # parallel search
    )
    result = run_layout(compiled, report.layout, args=["8"]) # many-core run

Run-time behaviour (fault injection, resilience, observability, sinks) is
configured through :class:`RunOptions`; search-time behaviour (anneal
schedule, hints, workers, simulation cache) through
:class:`SynthesisOptions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.astg import ASTG, build_all_astgs
from ..analysis.cstg import CSTG
from ..analysis.disjoint import DisjointnessResult, analyze_disjointness
from ..analysis.locks import LockPlan, build_lock_plan
from ..ir import instructions as ir
from ..ir.builder import lower_program
from ..ir.verify import verify_program
from ..lang import ast
from ..lang.errors import SemanticError
from ..lang.lexer import tokenize
from ..lang.parser import Parser
from ..obs import prof
from ..runtime.interp import Interpreter
from ..runtime.machine import MachineConfig, MachineResult, ManyCoreMachine
from ..runtime.objects import BArray, Heap
from ..runtime.profiler import ProfileData
from ..schedule.layout import Layout
from ..sema.symbols import ProgramInfo
from ..sema.typecheck import analyze
from .options import RunOptions

_P_LEX = prof.intern_phase("pipeline.lex")
_P_PARSE = prof.intern_phase("pipeline.parse")
_P_TYPECHECK = prof.intern_phase("pipeline.typecheck")
_P_IR = prof.intern_phase("pipeline.ir")
_P_ANALYSIS = prof.intern_phase("pipeline.analysis")
_P_PROFILE = prof.intern_phase("pipeline.profile")
_P_RUN = prof.intern_phase("pipeline.run")


@dataclass
class CompiledProgram:
    """A fully analyzed Bamboo program, ready to run or synthesize."""

    source: str
    program: ast.Program
    info: ProgramInfo
    ir_program: ir.IRProgram
    astgs: Dict[str, ASTG]
    cstg: CSTG
    disjointness: DisjointnessResult
    lock_plan: LockPlan

    def task_names(self) -> List[str]:
        return sorted(self.info.tasks)


def compile_program(
    source: str, filename: str = "<input>", optimize: bool = False
) -> CompiledProgram:
    """Runs the full front half of the compiler: parse, type-check, lower,
    verify, dependence analysis, disjointness analysis, lock planning.

    ``optimize=True`` additionally runs the scalar IR passes (constant
    folding, copy propagation, DCE, jump threading); semantics are
    preserved while cycle counts shrink slightly. The recorded experiment
    numbers use the straight translation.
    """
    with prof.phase(_P_LEX):
        tokens = tokenize(source, filename)
    with prof.phase(_P_PARSE):
        program = Parser(tokens, filename).parse_program()
    with prof.phase(_P_TYPECHECK):
        info = analyze(program)
    with prof.phase(_P_IR):
        ir_program = lower_program(info)
        verify_program(ir_program)
        if optimize:
            from ..ir.optimize import optimize_program

            optimize_program(ir_program)
    with prof.phase(_P_ANALYSIS):
        astgs = build_all_astgs(info, ir_program)
        cstg = CSTG.build(info, ir_program, astgs)
        disjointness = analyze_disjointness(info, ir_program)
        lock_plan = build_lock_plan(info, disjointness)
    return CompiledProgram(
        source=source,
        program=program,
        info=info,
        ir_program=ir_program,
        astgs=astgs,
        cstg=cstg,
        disjointness=disjointness,
        lock_plan=lock_plan,
    )


def single_core_layout(compiled: CompiledProgram) -> Layout:
    return Layout.single_core(compiled.info.tasks)


def run_layout(
    compiled: CompiledProgram,
    layout: Layout,
    args: Sequence[str],
    options: Optional[RunOptions] = None,
) -> MachineResult:
    """Executes the program on the many-core machine under ``layout``.

    Run behaviour (faults, resilience, observability, profile collection,
    trace/metrics sinks) comes from ``options``; when ``trace_path`` or
    ``metrics_path`` is set the run is observed and the sink written
    before returning — the CLI and the library share this one code path.
    """
    options = options or RunOptions()
    machine = ManyCoreMachine(
        compiled,
        layout,
        config=options.machine_config(),
        collect_profile=options.collect_profile,
    )
    with prof.phase(_P_RUN):
        result = machine.run(args)
    _write_run_sinks(result, options)
    return result


def _write_run_sinks(result: MachineResult, options: RunOptions) -> None:
    """Writes the trace/metrics sinks an observed run asked for."""
    if options.trace_path and result.events is not None:
        from ..obs import write_chrome_trace

        doc = write_chrome_trace(
            options.trace_path,
            result.events,
            sorted(result.core_busy),
            makespan=result.total_cycles,
        )
        # When a wall-clock profiler is recording spans, merge them in
        # as an extra track so the simulated timeline and the real one
        # land in a single Perfetto-loadable document.
        profiler = prof.active()
        if profiler is not None and profiler.record_spans:
            import json as _json

            doc["traceEvents"].extend(prof.span_trace_events(profiler))
            with open(options.trace_path, "w") as handle:
                _json.dump(doc, handle)
    if options.metrics_path and result.metrics is not None:
        from ..obs import write_metrics_snapshot

        write_metrics_snapshot(options.metrics_path, result.metrics)


def profile_program(
    compiled: CompiledProgram,
    args: Sequence[str],
    layout: Optional[Layout] = None,
) -> ProfileData:
    """Collects the profile that bootstraps synthesis (single-core unless a
    layout is given — the paper supports both, §4.3.1)."""
    layout = layout or single_core_layout(compiled)
    with prof.phase(_P_PROFILE):
        result = run_layout(
            compiled, layout, args, options=RunOptions(collect_profile=True)
        )
    assert result.profile is not None
    return result.profile


def annotated_cstg(compiled: CompiledProgram, profile: ProfileData) -> CSTG:
    """A fresh CSTG carrying the given profile's Markov annotations."""
    cstg = CSTG.build(compiled.info, compiled.ir_program, compiled.astgs, profile)
    return cstg


@dataclass
class SequentialResult:
    """Outcome of running a sequential (non-task) entry method — the
    stand-in for the paper's single-core C versions."""

    cycles: int
    stdout: str
    value: object = None


def run_sequential(
    compiled: CompiledProgram,
    args: Sequence[str],
    entry_class: str = "SeqMain",
    entry_method: str = "run",
    bounds_checks: bool = False,
) -> SequentialResult:
    """Runs ``entry_class.entry_method(String[] args)`` directly on the
    interpreter with **no task runtime** (no dispatch, locks, or flag
    bookkeeping) — the baseline the paper's C versions provide."""
    class_info = compiled.info.classes.get(entry_class)
    if class_info is None:
        raise SemanticError(f"no sequential entry class '{entry_class}'")
    method = class_info.methods.get(entry_method)
    if method is None:
        raise SemanticError(
            f"class '{entry_class}' has no method '{entry_method}'"
        )
    heap = Heap()
    interp = Interpreter(
        compiled.ir_program, compiled.info, heap, bounds_checks=bounds_checks
    )
    receiver = heap.new_object(entry_class, len(class_info.fields))
    ctor = class_info.constructor
    if ctor is not None and not ctor.param_types:
        interp.run_method(ctor.qualified_name, [receiver])
    argv = BArray(elem_type="String", values=list(args))
    value, cycles = interp.run_method(method.qualified_name, [receiver, argv])
    return SequentialResult(cycles=cycles, stdout=interp.output(), value=value)
