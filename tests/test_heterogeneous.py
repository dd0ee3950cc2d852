"""Heterogeneous-core tests (the §4.6 extension: 'straightforward to
extend ... heterogeneous cores ... by simply extending the simulation')."""

import pytest

from repro.core import (
    RunOptions,
    SynthesisOptions,
    profile_program,
    run_layout,
    single_core_layout,
    synthesize_layout,
)
from repro.runtime.machine import MachineConfig
from repro.schedule.anneal import AnnealConfig
from repro.schedule.layout import Layout, core_speed, scale_duration
from repro.schedule.simulator import simulate


class TestSpeedHelpers:
    def test_default_speed(self):
        assert core_speed(None, 3) == 1.0
        assert core_speed({}, 3) == 1.0
        assert core_speed({1: 2.0}, 3) == 1.0
        assert core_speed({1: 2.0}, 1) == 2.0

    def test_scale_duration(self):
        assert scale_duration(100, 1.0) == 100
        assert scale_duration(100, 2.0) == 50
        assert scale_duration(100, 0.5) == 200
        assert scale_duration(1, 1000.0) == 1  # never below one cycle

    def test_speed_floor(self):
        assert core_speed({0: 0.0}, 0) > 0  # guards divide-by-zero


class TestMachine:
    def test_slow_machine_slower(self, keyword_compiled):
        layout = single_core_layout(keyword_compiled)
        normal = run_layout(keyword_compiled, layout, ["6"])
        slow = run_layout(
            keyword_compiled,
            layout,
            ["6"], options=RunOptions(machine=MachineConfig(core_speeds={0: 0.5})))
        assert slow.stdout == normal.stdout
        assert slow.total_cycles > normal.total_cycles * 1.5

    def test_fast_core_faster(self, keyword_compiled):
        layout = single_core_layout(keyword_compiled)
        normal = run_layout(keyword_compiled, layout, ["6"])
        fast = run_layout(
            keyword_compiled,
            layout,
            ["6"], options=RunOptions(machine=MachineConfig(core_speeds={0: 2.0})))
        assert fast.total_cycles < normal.total_cycles

    def test_simulator_models_speeds(self, keyword_compiled, keyword_profile):
        layout = single_core_layout(keyword_compiled)
        estimate = simulate(
            keyword_compiled, layout, keyword_profile, core_speeds={0: 0.5}
        )
        real = run_layout(
            keyword_compiled,
            layout,
            ["6"], options=RunOptions(machine=MachineConfig(core_speeds={0: 0.5})))
        error = abs(estimate.total_cycles - real.total_cycles) / real.total_cycles
        assert error < 0.06


class TestSynthesisSteersWork:
    def test_dsa_prefers_fast_cores(self, keyword_compiled, keyword_profile):
        # Cores 2 and 3 are 4x slower: the synthesized layout should place
        # the replicated worker predominantly on the fast half.
        speeds = {2: 0.25, 3: 0.25}
        config = AnnealConfig(
            seed=3,
            initial_candidates=6,
            max_iterations=10,
            max_evaluations=150,
            patience=2,
            continue_probability=0.3,
        )
        report = synthesize_layout(
            keyword_compiled,
            keyword_profile,
            num_cores=4, options=SynthesisOptions(anneal=config, core_speeds=speeds))
        worker_cores = set(report.layout.cores_of("processText"))
        fast = worker_cores & {0, 1}
        slow = worker_cores & {2, 3}
        assert fast, "workers must use the fast cores"
        # The machine agrees the heterogeneous-aware layout helps.
        hetero_run = run_layout(
            keyword_compiled,
            report.layout,
            ["6"], options=RunOptions(machine=MachineConfig(core_speeds=speeds)))
        slow_only = Layout.make(4, {
            "startup": [2],
            "processText": [2, 3],
            "mergeIntermediateResult": [3],
        })
        slow_run = run_layout(
            keyword_compiled,
            slow_only,
            ["6"], options=RunOptions(machine=MachineConfig(core_speeds=speeds)))
        assert hetero_run.total_cycles < slow_run.total_cycles
        assert hetero_run.stdout == slow_run.stdout
