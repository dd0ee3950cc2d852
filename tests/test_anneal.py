"""Directed simulated annealing tests (paper §4.5)."""

import pytest

from repro.core import run_layout, single_core_layout
from repro.schedule.anneal import AnnealConfig, DirectedSimulatedAnnealing
from repro.schedule.simulator import simulate


def small_config(seed=0, **overrides):
    config = AnnealConfig(
        seed=seed,
        initial_candidates=4,
        max_iterations=8,
        max_evaluations=80,
        patience=1,
        continue_probability=0.2,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def run_dsa(compiled, profile, initial=None, **kwargs):
    with DirectedSimulatedAnnealing(compiled, profile, **kwargs) as dsa:
        return dsa.run(initial)


class TestSearch:
    def test_finds_better_than_single_core(self, keyword_compiled, keyword_profile):
        result = run_dsa(
            keyword_compiled, keyword_profile, num_cores=4, config=small_config()
        )
        single = simulate(
            keyword_compiled,
            single_core_layout(keyword_compiled),
            keyword_profile,
        )
        assert result.best_cycles < single.total_cycles

    def test_best_layout_is_valid_and_runs(self, keyword_compiled, keyword_profile):
        result = run_dsa(
            keyword_compiled, keyword_profile, num_cores=4, config=small_config()
        )
        result.best_layout.validate(keyword_compiled.info)
        machine_result = run_layout(keyword_compiled, result.best_layout, ["6"])
        assert machine_result.stdout == "total=12"

    def test_deterministic_given_seed(self, keyword_compiled, keyword_profile):
        first = run_dsa(
            keyword_compiled, keyword_profile, num_cores=4, config=small_config(3)
        )
        second = run_dsa(
            keyword_compiled, keyword_profile, num_cores=4, config=small_config(3)
        )
        assert first.best_cycles == second.best_cycles
        assert first.best_layout.canonical_key() == second.best_layout.canonical_key()

    def test_history_monotone_nonincreasing(self, keyword_compiled, keyword_profile):
        result = run_dsa(
            keyword_compiled, keyword_profile, num_cores=4, config=small_config()
        )
        for before, after in zip(result.history, result.history[1:]):
            assert after <= before

    def test_evaluation_budget_respected(self, keyword_compiled, keyword_profile):
        config = small_config(max_evaluations=10)
        result = run_dsa(
            keyword_compiled, keyword_profile, num_cores=4, config=config
        )
        assert result.evaluations <= 10

    def test_undirected_ablation_runs(self, keyword_compiled, keyword_profile):
        config = small_config(use_critical_path=False)
        result = run_dsa(
            keyword_compiled, keyword_profile, num_cores=4, config=config
        )
        assert result.best_cycles < (1 << 62)

    def test_initial_layout_injection(self, keyword_compiled, keyword_profile):
        single = single_core_layout(keyword_compiled)
        # num_cores=1 leaves no room: the single-core layout must win.
        result = run_dsa(
            keyword_compiled,
            keyword_profile,
            num_cores=1,
            config=small_config(),
            initial=[single],
        )
        assert result.best_layout.cores_used() == (0,)


class TestEvaluationCache:
    def test_cache_hits_do_not_consume_budget(self, keyword_compiled, keyword_profile):
        dsa = DirectedSimulatedAnnealing(
            keyword_compiled, keyword_profile, num_cores=4, config=small_config()
        )
        layout = single_core_layout(keyword_compiled)
        first = dsa.evaluate(layout)
        evals_after_first = dsa.evaluations
        second = dsa.evaluate(layout)
        assert dsa.evaluations == evals_after_first
        assert first[0] == second[0]
