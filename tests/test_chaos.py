"""Chaos harness (repro.resilience.chaos): seeded sweeps, checked invariants.

The acceptance sweep: 20+ seeded plans across three benchmarks, every run
terminating with exactly-once commits, balanced quarantine accounting, and
(for plan 0, the empty control) bit-identity with the resilience-disabled
baseline. The shared kernel's pieces are pinned here too: the one plan
type the host, net and dist harnesses draw, and the worker-side hang.
"""

import hashlib
import os
from dataclasses import replace

import pytest

from repro import chaos
from repro.bench import load_benchmark
from repro.core.api import run_layout
from repro.fault.plan import CoreCrash, FaultPlan
from repro.resilience import ResilienceConfig, chaos_plan, run_chaos
from repro.resilience.chaos import ChaosReport, ChaosRun
from repro.schedule.layout import Layout
from repro.search import host_plan
from repro.search.dist import dist_plan, scripted_plan
from repro.serve import net_plan

SMALL_ARGS = {
    "Keyword": ["8"],
    "MonteCarlo": ["10", "40"],
    "Series": ["10", "12"],
}


def spread_layout(compiled, num_cores=4):
    """Round-robins the program's tasks over ``num_cores`` cores."""
    mapping = {
        task: [index % num_cores]
        for index, task in enumerate(sorted(compiled.info.tasks))
    }
    return Layout.make(num_cores, mapping)


class TestChaosPlan:
    def test_plan_zero_always_empty(self):
        plan = chaos_plan(0, seed=123, cores=[0, 1, 2, 3], horizon=5000,
                          suspicion_window=1500)
        assert plan.is_empty()

    def test_same_seed_same_plan(self):
        a = chaos_plan(3, seed=42, cores=[0, 1, 2, 3], horizon=5000,
                       suspicion_window=1500)
        b = chaos_plan(3, seed=42, cores=[0, 1, 2, 3], horizon=5000,
                       suspicion_window=1500)
        assert a == b

    def test_one_core_always_spared(self):
        cores = [0, 1, 2, 3]
        for seed in range(40):
            plan = chaos_plan(1, seed=seed, cores=cores, horizon=5000,
                              suspicion_window=1500)
            faulted = {
                event.core for event in plan.events if hasattr(event, "core")
            }
            assert set(cores) - faulted, f"seed {seed} faulted every core"
            assert len(plan.crash_cores()) < len(cores)


class TestChaosSweep:
    def test_keyword_sweep_holds_invariants(self, keyword_compiled):
        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        mapping["processText"] = [0, 1, 2, 3]
        layout = Layout.make(4, mapping)
        report = run_chaos(keyword_compiled, layout, ["8"], runs=21, base_seed=11)
        assert report.ok, report.violations()
        assert len(report.runs) == 21
        assert report.runs[0].plan.is_empty()
        # The sweep actually exercised failures, not just empty plans.
        total_faults = sum(len(run.plan.events) for run in report.runs)
        assert total_faults > 0
        detections = sum(
            run.result.recovery.detections
            for run in report.runs
            if run.result is not None
        )
        assert detections > 0
        assert "all invariants held" in report.describe()

    @pytest.mark.parametrize("name", ["MonteCarlo", "Series"])
    def test_benchmark_sweeps_hold_invariants(self, name):
        compiled = load_benchmark(name)
        layout = spread_layout(compiled, num_cores=4)
        report = run_chaos(
            compiled, layout, SMALL_ARGS[name], runs=7, base_seed=5
        )
        assert report.ok, report.violations()
        for run in report.runs:
            assert run.result is not None
            stats = run.result.recovery
            assert stats.exactly_once()
            assert len(run.result.quarantined or []) == stats.quarantined_groups

    def test_report_surfaces_violations(self, keyword_compiled):
        bad = ChaosRun(
            index=3,
            seed=99,
            plan=FaultPlan.single_crash(1, 100),
            violations=["exactly-once violated: 1 duplicate commit(s)"],
        )
        crashed = ChaosRun(
            index=4,
            seed=100,
            plan=FaultPlan.make([]),
            error="ScheduleError: boom",
        )
        # The shared checks: a plan whose run raises becomes an error
        # verdict, and a control plan with one nonzero counter (a dead
        # core) is flagged.
        def raises(run):
            raise RuntimeError("boom in the machine")

        (raised,) = chaos.sweep(
            ChaosRun, 1, 7, lambda index, seed: FaultPlan.make([]), raises
        )
        baseline = run_layout(
            keyword_compiled, spread_layout(keyword_compiled), ["8"]
        )
        control = ChaosRun(
            index=0,
            seed=0,
            plan=FaultPlan.make([]),
            result=replace(baseline, core_death_cycles={1: 100}),
        )
        chaos.check_accounting(control)
        report = ChaosReport(runs=[bad, crashed, raised, control], baseline=None)
        assert not report.ok
        lines = report.violations()
        assert any("plan 3" in line and "exactly-once" in line for line in lines)
        assert any("plan 4" in line and "boom" in line for line in lines)
        assert "plan 0 (seed 7): RuntimeError: boom in the machine" in lines
        assert (
            "plan 0 (seed 0): control plan recorded activity: "
            "{'core_deaths': 1}" in lines
        )
        assert "INVARIANT VIOLATIONS" in report.describe()


class TestChaosCLI:
    def test_chaos_exit_zero_on_clean_sweep(self, tmp_path):
        import sys

        sys.path.insert(0, "tests")
        from conftest import KEYWORD_SOURCE
        from repro.cli import main

        path = tmp_path / "keyword.bam"
        path.write_text(KEYWORD_SOURCE)
        assert main(["run", str(path), "8", "--cores", "4", "--chaos", "5"]) == 0

    def test_resilience_flag_runs(self, tmp_path, capsys):
        from conftest import KEYWORD_SOURCE
        from repro.cli import main

        path = tmp_path / "keyword.bam"
        path.write_text(KEYWORD_SOURCE)
        rc = main(
            [
                "run",
                str(path),
                "8",
                "--cores",
                "4",
                "--resilience",
                "--inject-fault",
                "core=1@2000",
                "--validate",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "total=16" in captured.out
        assert "heartbeat" in captured.err


#: sha256 over 113 plans: host plans 0-15 at horizons 1, 5 and 55, net
#: plans 0-15 at horizons 3 and 7, dist plans 0-15 at horizons 3 and 6,
#: and one scripted dist plan; each plan's describe() and its lookups at
#: every sequence number up to horizon + 1. Taken with the per-harness
#: plan classes the one Plan type replaced, so a sweep plans the same
#: faults and prints the same plan lines as before.
PLAN_DIGEST = "6dfd1cbf2299db507dcdb5e71c285106f6c93bde8a49b1de49d1894b51b2ba6f"


def _plan_line(plan, horizon):
    rows = []
    for at in range(horizon + 2):
        fault = plan.fault(at)
        kind, seconds = (fault.kind, fault.seconds) if fault else (None, None)
        rows.append((kind, seconds, plan.wire_fault(at)))
    return f"{plan.describe()}|{rows!r}"


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestKernel:
    def test_plans_are_pinned(self):
        lines = [
            _plan_line(host_plan(index, index, horizon), horizon)
            for horizon in (1, 5, 55)
            for index in range(16)
        ]
        lines += [
            _plan_line(net_plan(index, index, horizon), horizon)
            for horizon in (3, 7)
            for index in range(16)
        ]
        lines += [
            _plan_line(dist_plan(index, index, horizon), horizon)
            for horizon in (3, 6)
            for index in range(16)
        ]
        scripted = scripted_plan(
            crash=(2,), hang=(4,), expire=(3,), hang_seconds=1.5
        )
        lines.append(_plan_line(scripted, 6))
        assert len(lines) == 113
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == PLAN_DIGEST

    def test_planned_hang_sleeps_its_full_length(self, monkeypatch):
        # The host harness sleeps a hang past the batch's most generous
        # allowance, which on a large batch is minutes; a shorter sleep
        # turns the hang into a delay the supervisor never detects.
        clock = _FakeClock()
        monkeypatch.setattr(chaos, "time", clock)
        chaos.worker_fault("hang", 125.0)
        assert clock.now == pytest.approx(125.0)

    def test_hang_ends_when_the_parent_is_gone(self, monkeypatch):
        clock = _FakeClock()
        monkeypatch.setattr(chaos, "time", clock)
        parent = os.getppid()
        monkeypatch.setattr(
            os, "getppid", lambda: parent if clock.now < 10.0 else parent + 1
        )
        chaos.worker_fault("hang", 3600.0)
        assert 10.0 <= clock.now < 11.0
