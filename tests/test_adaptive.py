"""Tests for the §7 field re-optimization extension."""

from dataclasses import replace

import pytest

from repro.core import adaptive
from repro.core.adaptive import AdaptiveExecutable
from repro.schedule.anneal import AnnealConfig


def small_config():
    return AnnealConfig(
        initial_candidates=3,
        max_iterations=6,
        max_evaluations=50,
        patience=1,
        continue_probability=0.1,
    )


@pytest.fixture
def exe(keyword_compiled):
    return AdaptiveExecutable(
        keyword_compiled,
        num_cores=4,
        profile_every=2,
        config=small_config(),
    )


class TestAdaptation:
    def test_starts_single_core(self, exe):
        assert exe.layout.cores_used() == (0,)

    def test_first_run_triggers_optimization(self, exe):
        result = exe.run(["8"])
        assert result.stdout == "total=16"
        assert len(exe.history) == 1
        assert exe.history[0].adopted
        assert len(exe.layout.cores_used()) > 1

    def test_subsequent_runs_use_new_layout(self, exe):
        first = exe.run(["8"])
        second = exe.run(["8"])
        assert second.total_cycles < first.total_cycles
        assert second.stdout == first.stdout

    def test_reoptimization_cadence(self, exe):
        for _ in range(5):
            exe.run(["8"])
        # Profiled at runs 1, 2, 4 (every 2nd run plus the bootstrap).
        assert [r.run_index for r in exe.history] == [1, 2, 4]

    def test_stable_workload_keeps_layout(self, exe):
        for _ in range(4):
            exe.run(["8"])
        layouts = {r.new_layout.canonical_key() for r in exe.history if r.adopted}
        # After the first adoption the layout settles (no gain -> kept old).
        assert len(exe.adaptations) <= 2
        assert layouts

    def test_retarget_clamps_layout(self, exe):
        exe.run(["8"])
        exe.retarget(2)
        assert exe.layout.num_cores == 2
        assert all(c < 2 for c in exe.layout.cores_used())
        # The executable still runs correctly on the clamped layout.
        result = exe.run(["8"])
        assert result.stdout == "total=16"

    def test_retarget_upward_enables_readaptation(self, exe):
        exe.run(["8"])  # adapt for 4 cores
        before = exe.layout
        exe.retarget(8)
        exe.run(["8"])  # run 2: profiled (every 2nd) -> re-optimize for 8
        assert exe.layout.num_cores == 8
        assert exe.layout.canonical_key() != before.canonical_key() or (
            len(exe.layout.cores_used()) >= len(before.cores_used())
        )

    def test_record_fields(self, exe):
        exe.run(["8"])
        record = exe.history[0]
        assert record.workload == ["8"]
        assert record.old_estimate > record.new_estimate
        assert 0 < record.predicted_gain < 1

    def test_config_seed_reaches_each_reoptimization(
        self, keyword_compiled, monkeypatch
    ):
        # The n-th re-optimization searches with config.seed + n; no
        # second seed parameter overrides the config's.
        seeds = []
        synthesize = adaptive.synthesize_layout

        def spy(compiled, profile, num_cores, options=None):
            seeds.append(options.anneal.seed)
            return synthesize(compiled, profile, num_cores, options=options)

        monkeypatch.setattr(adaptive, "synthesize_layout", spy)
        exe = AdaptiveExecutable(
            keyword_compiled,
            num_cores=4,
            profile_every=1,
            config=replace(small_config(), seed=12345),
        )
        exe.run(["8"])
        exe.run(["8"])
        assert seeds == [12345, 12346]
