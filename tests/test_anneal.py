"""Directed simulated annealing tests (paper §4.5)."""

import pytest

from repro.core import SynthesisOptions, run_layout, single_core_layout
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


def run_dsa(compiled, profile, num_cores, config, initial=None):
    with DirectedSimulatedAnnealing(
        compiled, profile, num_cores, SynthesisOptions(anneal=config)
    ) as dsa:
        return dsa.run(initial)


class TestSearch:
    def test_finds_better_than_single_core(self, keyword_compiled, keyword_profile):
        result = run_dsa(keyword_compiled, keyword_profile, 4, small_config())
        single = simulate(
            keyword_compiled,
            single_core_layout(keyword_compiled),
            keyword_profile,
        )
        assert result.estimated_cycles < single.total_cycles

    def test_best_layout_is_valid_and_runs(self, keyword_compiled, keyword_profile):
        result = run_dsa(keyword_compiled, keyword_profile, 4, small_config())
        result.layout.validate(keyword_compiled.info)
        machine_result = run_layout(keyword_compiled, result.layout, ["6"])
        assert machine_result.stdout == "total=12"

    def test_deterministic_given_seed(self, keyword_compiled, keyword_profile):
        first = run_dsa(keyword_compiled, keyword_profile, 4, small_config(3))
        second = run_dsa(keyword_compiled, keyword_profile, 4, small_config(3))
        assert first.estimated_cycles == second.estimated_cycles
        assert first.layout.canonical_key() == second.layout.canonical_key()

    def test_history_monotone_nonincreasing(self, keyword_compiled, keyword_profile):
        result = run_dsa(keyword_compiled, keyword_profile, 4, small_config())
        for before, after in zip(result.history, result.history[1:]):
            assert after <= before

    def test_evaluation_budget_respected(self, keyword_compiled, keyword_profile):
        config = small_config(max_evaluations=10)
        result = run_dsa(keyword_compiled, keyword_profile, 4, config)
        assert result.evaluations <= 10

    def test_undirected_ablation_runs(self, keyword_compiled, keyword_profile):
        config = small_config(use_critical_path=False)
        result = run_dsa(keyword_compiled, keyword_profile, 4, config)
        assert result.estimated_cycles < (1 << 62)

    def test_initial_layout_injection(self, keyword_compiled, keyword_profile):
        single = single_core_layout(keyword_compiled)
        # num_cores=1 leaves no room: the single-core layout must win.
        result = run_dsa(
            keyword_compiled, keyword_profile, 1, small_config(),
            initial=[single],
        )
        assert result.layout.cores_used() == (0,)


def _trajectory_digest(report):
    """sha256 of everything a search decides: estimate, layout, history,
    simulations, cache hits, requests and iterations."""
    import hashlib
    import json

    doc = [
        report.estimated_cycles,
        report.layout.as_dict(),
        report.history,
        report.evaluations,
        report.cache_hits,
        report.requested_evaluations,
        report.iterations,
    ]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


#: Seed-0 trajectories at 16 cores with a 60-simulation budget. Every
#: other search test compares two runs with each other; these pin the
#: absolute result, so an RNG-order slip that moves both sides alike
#: still fails here.
GOLDEN_TRAJECTORIES = {
    "Tracking": "987c447f1ac640964753f6e4ba53ab20a21bf75d23135656e28d6d0d16185cdd",
    "KMeans": "d03f81cea380b3c8aacad0002e9719fda967dc25838e85ed8632da16e57dda5c",
    "MonteCarlo": "d187a35a8a2334ec9e50f6aba2c49db491c999c7ff1654a6c6e86762e0d2ec2b",
    "FilterBank": "7b2aa1cb0ecc624c96b66e942a0e5634ed4ef2ca7ba0de5b810afa9a6a6bfd9c",
    "Fractal": "60f8360f93b673da643aaeca3250365e9713e3798566bcc214ae52349d434400",
    "Series": "13d41e0da3fdc6b0ee3ba2e56b81d125ef15ca416fc758692966c5fb9d90ec46",
}
GOLDEN_KEYWORD_RESUMED = (
    "8a7219d0fda319c058ee05e3ec8d4d2e62a9a3fd174fb94e01e23cba8fd57cac"
)


def _golden_options(name, **kw):
    from repro.bench import get_spec
    from repro.core import SynthesisOptions

    return SynthesisOptions(
        anneal=AnnealConfig(seed=0, max_evaluations=60),
        hints=get_spec(name).hints,
        **kw,
    )


class TestGoldenTrajectories:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(GOLDEN_TRAJECTORIES))
    def test_trajectory_is_pinned(self, name, workers):
        from test_search import small_profile

        from repro.bench import load_benchmark
        from repro.core import synthesize_layout

        report = synthesize_layout(
            load_benchmark(name), small_profile(name), 16,
            options=_golden_options(name, workers=workers),
        )
        assert _trajectory_digest(report) == GOLDEN_TRAJECTORIES[name]

    def test_resumed_keyword_trajectory_is_pinned(self, tmp_path):
        from test_search import small_profile

        from repro.bench import load_benchmark
        from repro.core import synthesize_layout
        from repro.schedule.anneal import SearchCancelled
        from repro.search import read_checkpoint

        compiled = load_benchmark("Keyword")
        profile = small_profile("Keyword")
        path = str(tmp_path / "search.ckpt")
        # Cancelled at the third boundary poll: after iteration 2.
        polls = iter([False, False, True])
        with pytest.raises(SearchCancelled):
            synthesize_layout(
                compiled, profile, 16,
                options=_golden_options(
                    "Keyword", checkpoint_path=path,
                    cancel_check=lambda: next(polls),
                ),
            )
        assert read_checkpoint(path).iteration == 2
        resumed = synthesize_layout(
            compiled, profile, 16,
            options=_golden_options("Keyword", resume=path),
        )
        assert _trajectory_digest(resumed) == GOLDEN_KEYWORD_RESUMED
