"""Determinism: the invariant docs/ARCHITECTURE.md claims, enforced.

Two runs of anything — same program, same seed, same layout — must produce
byte-identical cycle counts and event traces. This holds for fault runs
too: the same fault plan produces the same crash, the same recovery, and
the same final state.
"""

import json

import pytest

from repro.bench import benchmark_names, load_benchmark
from repro.core import RunOptions, run_layout, single_core_layout
from repro.fault import CoreCrash, FaultPlan, LinkDegrade, TransientStall
from repro.obs.events import Crash
from repro.resilience import chaos_plan
from repro.runtime.machine import MachineConfig
from repro.schedule.layout import Layout

SMALL_ARGS = {
    "Tracking": ["12", "6"],
    "KMeans": ["6", "8", "3"],
    "MonteCarlo": ["10", "40"],
    "FilterBank": ["8", "24"],
    "Fractal": ["16"],
    "Series": ["10", "12"],
    "Keyword": ["8"],
}


def quad_layout(compiled):
    mapping = {t: [0] for t in compiled.info.tasks}
    mapping["processText"] = [0, 1, 2, 3]
    return Layout.make(4, mapping)


def fingerprint(result):
    """Everything observable about a run, as comparable bytes."""
    lines = [
        f"cycles={result.total_cycles}",
        f"messages={result.messages}",
        f"busy={sorted(result.core_busy.items())}",
        f"invocations={sorted(result.invocations.items())}",
        f"exits={sorted(result.exit_counts.items())}",
        f"stale={result.stale_invocations}",
        f"lock_failures={result.lock_failures}",
        f"stdout={result.stdout!r}",
    ]
    if result.events is not None:
        lines.extend(
            json.dumps(event.to_json(), sort_keys=True)
            for event in result.events
        )
    return "\n".join(lines).encode()


class TestMachineDeterminism:
    def test_identical_runs_byte_identical(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        config = MachineConfig(observe=True)
        first = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        second = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        assert first.events  # the event stream actually recorded something
        assert fingerprint(first) == fingerprint(second)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_benchmarks_byte_identical(self, name):
        compiled = load_benchmark(name)
        layout = single_core_layout(compiled)
        config = MachineConfig(observe=True)
        first = run_layout(compiled, layout, SMALL_ARGS[name], options=RunOptions(machine=config))
        second = run_layout(compiled, layout, SMALL_ARGS[name], options=RunOptions(machine=config))
        assert fingerprint(first) == fingerprint(second)


class TestFaultDeterminism:
    def test_same_fault_plan_identical_recovery(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        plan = FaultPlan.make(
            [
                CoreCrash(core=1, cycle=2000),
                TransientStall(core=2, cycle=1200, duration=700),
                LinkDegrade(cycle=500, multiplier=2.0),
            ]
        )
        config = MachineConfig(fault_plan=plan, validate=True, observe=True)
        first = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        second = run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config))
        assert fingerprint(first) == fingerprint(second)
        assert first.recovery == second.recovery
        assert [e.core for e in first.events if isinstance(e, Crash)] == [1]

    def test_fault_free_config_matches_no_config(self, keyword_compiled):
        # The fault machinery must be pay-for-what-you-use: an absent plan
        # takes exactly the seed code paths (bit-identical cycle counts).
        layout = quad_layout(keyword_compiled)
        plain = run_layout(keyword_compiled, layout, ["12"])
        gated = run_layout(
            keyword_compiled, layout, ["12"], options=RunOptions(machine=MachineConfig(fault_plan=None)))
        assert fingerprint(plain) == fingerprint(gated)

    @pytest.mark.parametrize("name", ["Keyword", "MonteCarlo", "Series"])
    def test_benchmark_fault_runs_deterministic(self, name):
        compiled = load_benchmark(name)
        layout = single_core_layout(compiled)
        base = run_layout(compiled, layout, SMALL_ARGS[name])
        # Stall the only core mid-run: recovery-adjacent machinery (event
        # interleaving, busy-time bookkeeping) must stay deterministic.
        plan = FaultPlan.make(
            [TransientStall(core=0, cycle=base.total_cycles // 2, duration=911)]
        )
        config = MachineConfig(fault_plan=plan, validate=True, observe=True)
        first = run_layout(compiled, layout, SMALL_ARGS[name], options=RunOptions(machine=config))
        second = run_layout(compiled, layout, SMALL_ARGS[name], options=RunOptions(machine=config))
        assert fingerprint(first) == fingerprint(second)
        assert first.stdout == base.stdout

    def test_random_plans_reproducible_end_to_end(self, keyword_compiled):
        layout = quad_layout(keyword_compiled)
        results = []
        for _ in range(2):
            plan = chaos_plan(
                1, seed=3, cores=[0, 1, 2, 3], horizon=3000,
                suspicion_window=1500,
            )
            config = MachineConfig(fault_plan=plan, validate=True)
            results.append(run_layout(keyword_compiled, layout, ["12"], options=RunOptions(machine=config)))
        assert fingerprint(results[0]) == fingerprint(results[1])
        assert results[0].recovery == results[1].recovery
        assert results[0].stdout == "total=24"
