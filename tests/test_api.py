"""Public API and synthesis pipeline tests."""

import pytest

from repro.core import (
    SynthesisOptions,
    annotated_cstg,
    compile_program,
    profile_program,
    run_layout,
    run_sequential,
    single_core_layout,
    synthesize_layout,
)
from repro.lang.errors import SemanticError
from repro.schedule.anneal import AnnealConfig

from conftest import KEYWORD_SOURCE


class TestCompile:
    def test_compile_produces_all_artifacts(self, keyword_compiled):
        assert keyword_compiled.info is not None
        assert keyword_compiled.ir_program.tasks
        assert keyword_compiled.astgs
        assert keyword_compiled.cstg.nodes
        assert keyword_compiled.lock_plan.tasks

    def test_task_names(self, keyword_compiled):
        assert keyword_compiled.task_names() == [
            "mergeIntermediateResult",
            "processText",
            "startup",
        ]

    def test_compile_errors_propagate(self):
        with pytest.raises(SemanticError):
            compile_program("class A { int x; int x; }")


class TestSequential:
    def test_run_sequential(self, keyword_compiled):
        result = run_sequential(keyword_compiled, ["3"])
        assert result.stdout == "total=6"
        assert result.cycles > 0

    def test_missing_entry_class(self, keyword_compiled):
        with pytest.raises(SemanticError):
            run_sequential(keyword_compiled, ["1"], entry_class="Nope")

    def test_missing_entry_method(self, keyword_compiled):
        with pytest.raises(SemanticError):
            run_sequential(keyword_compiled, ["1"], entry_method="nope")


class TestProfiling:
    def test_profile_program_defaults_to_single_core(self, keyword_compiled):
        profile = profile_program(keyword_compiled, ["4"])
        assert profile.invocations("processText") == 4

    def test_annotated_cstg_is_fresh(self, keyword_compiled, keyword_profile):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        assert cstg is not keyword_compiled.cstg
        assert any(e.avg_time > 0 for e in cstg.transitions)


class TestSynthesis:
    def test_synthesize_layout_report(self, keyword_compiled, keyword_profile):
        config = AnnealConfig(
            seed=1, initial_candidates=4, max_iterations=6, max_evaluations=60,
            patience=1, continue_probability=0.1,
        )
        report = synthesize_layout(
            keyword_compiled, keyword_profile, num_cores=4, options=SynthesisOptions(anneal=config))
        assert report.estimated_cycles > 0
        assert report.evaluations > 0
        assert report.wall_seconds >= 0
        assert report.history[-1] == report.estimated_cycles
        report.layout.validate(keyword_compiled.info)

    def test_synthesized_layout_runs_correctly(
        self, keyword_compiled, keyword_profile
    ):
        config = AnnealConfig(
            seed=1, initial_candidates=4, max_iterations=6, max_evaluations=60,
            patience=1, continue_probability=0.1,
        )
        report = synthesize_layout(
            keyword_compiled, keyword_profile, num_cores=4, options=SynthesisOptions(anneal=config))
        result = run_layout(keyword_compiled, report.layout, ["6"])
        single = run_layout(
            keyword_compiled, single_core_layout(keyword_compiled), ["6"]
        )
        assert result.stdout == single.stdout
        assert result.total_cycles <= single.total_cycles


class TestMultiCoreProfiling:
    def test_profile_from_parallel_run_drives_synthesis(
        self, keyword_compiled
    ):
        # §4.3.1: Bamboo supports single- OR many-core profiling versions.
        from repro.schedule.anneal import AnnealConfig
        from repro.schedule.layout import Layout

        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        mapping["processText"] = [0, 1]
        parallel_layout = Layout.make(2, mapping)
        profile = profile_program(
            keyword_compiled, ["6"], layout=parallel_layout
        )
        assert profile.invocations("processText") == 6
        config = AnnealConfig(
            seed=2, initial_candidates=3, max_iterations=5, max_evaluations=40,
            patience=1, continue_probability=0.1,
        )
        report = synthesize_layout(
            keyword_compiled, profile, num_cores=4, options=SynthesisOptions(anneal=config))
        result = run_layout(keyword_compiled, report.layout, ["6"])
        assert result.stdout == "total=12"
