"""The parallel, memoized layout search (:mod:`repro.search`).

Three contracts are enforced here:

* **Worker independence** — ``workers=N`` synthesis is bit-identical to
  ``workers=1`` on every benchmark program (same best layout, same cycle
  estimate, same iteration history, same accounting).
* **Cache transparency** — with an unbounded budget, synthesis with the
  simulation cache on equals synthesis with it off.
* **Fingerprint soundness** — distinct layout contents get distinct
  fingerprints; identical contents get identical fingerprints.

Plus the :class:`SimCache` unit behaviour (LRU, counters)
and the deprecated keyword shims of the options API redesign.
"""

import random

import pytest

from repro.bench import benchmark_names, get_spec, load_benchmark
from repro.core import (
    RunOptions,
    SynthesisOptions,
    annotated_cstg,
    profile_program,
    run_layout,
    single_core_layout,
    synthesize_layout,
)
from repro.obs import MetricsRegistry
from repro.schedule.anneal import AnnealConfig, DirectedSimulatedAnnealing
from repro.schedule.coregroup import build_group_graph
from repro.schedule.mapping import layout_fingerprint, random_layouts
from repro.schedule.simulator import SimResult, SimSession
from repro.search import (
    CacheEntry,
    EvaluationError,
    ParallelEvaluator,
    SerialEvaluator,
    SimCache,
    make_evaluator,
)

SMALL_ARGS = {
    "Tracking": ["12", "6"],
    "KMeans": ["6", "8", "3"],
    "MonteCarlo": ["10", "40"],
    "FilterBank": ["8", "24"],
    "Fractal": ["16"],
    "Series": ["10", "12"],
    "Keyword": ["8"],
}

SMALL_ANNEAL = dict(
    initial_candidates=2, max_iterations=3, patience=2,
    continue_probability=0.2,
)

_PROFILES = {}


def small_profile(name):
    if name not in _PROFILES:
        _PROFILES[name] = profile_program(
            load_benchmark(name), SMALL_ARGS[name]
        )
    return _PROFILES[name]


def small_synthesis(name, **options_kw):
    compiled = load_benchmark(name)
    profile = small_profile(name)
    options = SynthesisOptions(
        anneal=AnnealConfig(seed=7, **SMALL_ANNEAL),
        hints=get_spec(name).hints,
        **options_kw,
    )
    return synthesize_layout(compiled, profile, 4, options=options)


def report_fingerprint(report):
    """Everything observable about a synthesis run, as comparable data."""
    return (
        report.estimated_cycles,
        report.layout.as_dict(),
        report.layout.num_cores,
        report.history,
        report.evaluations,
        report.cache_hits,
        report.requested_evaluations,
        report.iterations,
    )


class TestWorkerIndependence:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_parallel_matches_serial_on_every_benchmark(self, name):
        serial = small_synthesis(name, workers=1)
        parallel = small_synthesis(name, workers=2)
        assert report_fingerprint(serial) == report_fingerprint(parallel)

    def test_three_workers_match_too(self):
        serial = small_synthesis("Keyword", workers=1)
        parallel = small_synthesis("Keyword", workers=3)
        assert report_fingerprint(serial) == report_fingerprint(parallel)


class TestCacheTransparency:
    def test_cache_on_equals_cache_off(self):
        # With an unbounded budget, memoization only skips
        # re-simulation of identical layouts — it cannot change scores.
        on = small_synthesis("Keyword", sim_cache=True)
        off = small_synthesis("Keyword", sim_cache=False)
        assert on.estimated_cycles == off.estimated_cycles
        assert on.layout.as_dict() == off.layout.as_dict()
        assert on.history == off.history
        # The cache only *saves* work:
        assert on.evaluations <= off.evaluations
        assert on.requested_evaluations == off.requested_evaluations
        assert off.cache_hits == 0

    def test_cache_hits_do_not_consume_budget(self):
        compiled = load_benchmark("Keyword")
        profile = profile_program(compiled, SMALL_ARGS["Keyword"])
        anneal = AnnealConfig(seed=7, max_evaluations=40, **SMALL_ANNEAL)
        report = synthesize_layout(
            compiled, profile, 4, options=SynthesisOptions(anneal=anneal)
        )
        assert report.evaluations <= 40
        # requested counts hits on top of the budgeted simulations
        assert report.requested_evaluations == (
            report.evaluations + report.cache_hits
        )

    def test_shared_cache_across_runs(self):
        compiled = load_benchmark("Keyword")
        profile = profile_program(compiled, SMALL_ARGS["Keyword"])
        shared = SimCache()
        anneal = AnnealConfig(seed=7, **SMALL_ANNEAL)
        first = synthesize_layout(
            compiled, profile, 4,
            options=SynthesisOptions(anneal=anneal, cache=shared),
        )
        second = synthesize_layout(
            compiled, profile, 4,
            options=SynthesisOptions(anneal=anneal, cache=shared),
        )
        assert second.estimated_cycles == first.estimated_cycles
        # The second run re-visits only memoized layouts.
        assert second.evaluations == 0
        assert second.cache_hits == second.requested_evaluations > 0

    def test_shared_cache_with_sim_cache_off_is_refused(self):
        # A shared cache the search would silently bypass is a caller
        # error, caught before the cache is touched.
        shared = SimCache()
        with pytest.raises(ValueError, match="cache.*sim_cache"):
            small_synthesis("Keyword", sim_cache=False, cache=shared)
        assert shared.registry is None
        assert shared.lookups == 0 and len(shared) == 0

    def test_report_carries_search_metrics_snapshot(self):
        report = small_synthesis("Keyword")
        snapshot = report.search_metrics
        assert snapshot["schema"] == "repro.obs/search-metrics-v1"
        assert snapshot["workers"] == 1
        assert snapshot["evaluations"] == report.evaluations
        assert snapshot["cache_hits"] == report.cache_hits
        assert snapshot["sim_cache"]["hits"] == report.cache_hits
        assert 0.0 <= snapshot["cache_hit_rate"] <= 1.0
        # The pipeline's own registry saw every cache event.
        assert snapshot["counters"]["sim_cache_hits"] == report.cache_hits


def _keyword_layout_pool(count=40, num_cores=6, seed=11):
    compiled = load_benchmark("Keyword")
    profile = profile_program(compiled, SMALL_ARGS["Keyword"])
    cstg = annotated_cstg(compiled, profile)
    graph = build_group_graph(compiled.info, cstg, profile)
    choices = {
        g.group_id: ([1, 2, 3, num_cores] if g.replicable else [1])
        for g in graph.groups
    }
    return random_layouts(
        compiled.info, graph, choices, num_cores, count, random.Random(seed)
    )


class TestLayoutFingerprint:
    def test_distinct_contents_distinct_fingerprints(self):
        layouts = _keyword_layout_pool()
        assert len(layouts) >= 10  # the sampler actually produced a pool
        by_content = {}
        for layout in layouts:
            content = (
                layout.num_cores,
                tuple(sorted(
                    (task, tuple(cores))
                    for task, cores in layout.as_dict().items()
                )),
            )
            by_content.setdefault(content, set()).add(
                layout_fingerprint(layout)
            )
        # identical content -> identical fingerprint
        assert all(len(prints) == 1 for prints in by_content.values())
        # distinct content -> distinct fingerprint (no collisions in pool)
        all_prints = [next(iter(p)) for p in by_content.values()]
        assert len(set(all_prints)) == len(by_content)

    def test_core_speeds_change_the_fingerprint(self):
        layout = _keyword_layout_pool(count=1)[0]
        plain = layout_fingerprint(layout)
        hetero = layout_fingerprint(layout, {0: 2.0})
        assert plain != hetero
        # speeds on unused cores are irrelevant
        unused = max(layout.cores_used()) + 1
        assert layout_fingerprint(layout, {unused: 2.0}) == plain

    def test_fingerprint_is_stable(self):
        layout = _keyword_layout_pool(count=1)[0]
        assert layout_fingerprint(layout) == layout_fingerprint(layout)


def _entry(cycles):
    result = SimResult(
        total_cycles=cycles, finished=True, trace=[], core_busy={},
        invocations={}, utilization=1.0,
    )
    return CacheEntry(cycles=cycles, result=result)


class TestSimCache:
    def test_hit_miss_counters(self):
        cache = SimCache()
        assert cache.get("a") is None
        cache.put("a", _entry(100))
        assert cache.get("a").cycles == 100
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert len(cache) == 1 and "a" in cache

    def test_lru_eviction(self):
        cache = SimCache(max_entries=2)
        cache.put("a", _entry(1))
        cache.put("b", _entry(2))
        assert cache.get("a") is not None  # refresh a
        cache.put("c", _entry(3))          # evicts b, the LRU entry
        assert cache.evictions == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_registry_counters(self):
        registry = MetricsRegistry()
        cache = SimCache(registry=registry)
        cache.get("a")
        cache.put("a", _entry(10))
        cache.get("a")
        counters = registry.snapshot()["counters"]
        assert counters["sim_cache_hits"] == 1
        assert counters["sim_cache_misses"] == 1

    def test_stats_snapshot(self):
        cache = SimCache(max_entries=8)
        cache.put("a", _entry(10))
        cache.get("a")
        cache.get("zzz")
        stats = cache.cache_stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 8
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["lookups"] == 2


class TestEvaluatorContract:
    @pytest.fixture(scope="class")
    def keyword_setup(self):
        compiled = load_benchmark("Keyword")
        profile = profile_program(compiled, SMALL_ARGS["Keyword"])
        layouts = _keyword_layout_pool(count=6, num_cores=4, seed=5)
        return compiled, profile, layouts

    def test_budget_stops_batch_at_first_uncovered_miss(self, keyword_setup):
        compiled, profile, layouts = keyword_setup
        evaluator = SerialEvaluator(compiled, profile, cache=SimCache())
        outcome = evaluator.evaluate(layouts, budget=3)
        assert outcome.simulations == 3
        assert len(outcome.scored) == 3  # unscored suffix dropped

    def test_cached_prefix_is_free(self, keyword_setup):
        compiled, profile, layouts = keyword_setup
        cache = SimCache()
        evaluator = SerialEvaluator(compiled, profile, cache=cache)
        evaluator.evaluate(layouts)  # warm
        outcome = evaluator.evaluate(layouts, budget=0)
        assert outcome.simulations == 0
        assert outcome.cache_hits == len(layouts)
        assert all(item.from_cache for item in outcome.scored)

    def test_parallel_backend_matches_serial(self, keyword_setup):
        compiled, profile, layouts = keyword_setup
        serial = SerialEvaluator(compiled, profile)
        parallel = ParallelEvaluator(compiled, profile, workers=2)
        with serial, parallel:
            # A 1-layout batch goes through the pool like any other.
            for batch in (layouts, layouts[:1]):
                dispatched = parallel.stats.dispatches
                a = serial.evaluate(batch)
                b = parallel.evaluate(batch)
                assert [s.cycles for s in a.scored] == [
                    s.cycles for s in b.scored
                ]
                assert parallel.stats.dispatches > dispatched

    def test_factory_picks_backend(self, keyword_setup):
        compiled, profile, _ = keyword_setup
        assert isinstance(
            make_evaluator(compiled, profile, workers=1), SerialEvaluator
        )
        parallel = make_evaluator(compiled, profile, workers=2)
        assert isinstance(parallel, ParallelEvaluator)
        parallel.close()

    def test_parallel_requires_two_workers(self, keyword_setup):
        compiled, profile, _ = keyword_setup
        with pytest.raises(ValueError):
            ParallelEvaluator(compiled, profile, workers=1)

    def test_worker_exception_carries_batch_position(self, keyword_setup):
        compiled, profile, layouts = keyword_setup

        class FailingFuture:
            def result(self, timeout=None):
                raise ValueError("boom")

        class FailingPool:
            def submit(self, fn, *args):
                return FailingFuture()

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        evaluator = ParallelEvaluator(compiled, profile, workers=2)
        evaluator._executor = FailingPool()
        with pytest.raises(EvaluationError) as excinfo:
            evaluator._simulate(layouts[:3])
        assert excinfo.value.position == 0
        assert excinfo.value.batch_size == 3
        assert "layout 1/3" in str(excinfo.value)
        assert "ValueError: boom" in str(excinfo.value)

    def test_worker_failure_names_its_position_inside_a_chunk(
        self, keyword_setup, monkeypatch
    ):
        # Six layouts on two workers ship as three 2-layout chunks; the
        # 4th layout (offset 1 of the second chunk) fails in its worker.
        compiled, profile, layouts = keyword_setup
        assert len(layouts) == 6
        failing = layout_fingerprint(layouts[3])
        simulate = SimSession.simulate

        def failing_simulate(session, layout):
            if layout_fingerprint(layout) == failing:
                raise ValueError("boom")
            return simulate(session, layout)

        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(SimSession, "simulate", failing_simulate)
        with ParallelEvaluator(compiled, profile, workers=2) as evaluator:
            with pytest.raises(EvaluationError) as excinfo:
                evaluator.evaluate(layouts)
            assert evaluator.stats.dispatches == 3
        assert excinfo.value.position == 3
        assert excinfo.value.batch_size == 6
        assert "layout 4/6" in str(excinfo.value)
        assert "ValueError: boom" in str(excinfo.value)

    def test_evaluator_context_manager_closes_pool(self, keyword_setup):
        compiled, profile, layouts = keyword_setup
        with ParallelEvaluator(compiled, profile, workers=2) as evaluator:
            evaluator.evaluate(layouts[:3])
            assert evaluator._executor is not None
        assert evaluator._executor is None
        # close() is idempotent
        evaluator.close()


class TestOptionsShims:
    def test_run_options_sinks_written(self, tmp_path):
        import json

        compiled = load_benchmark("Keyword")
        layout = single_core_layout(compiled)
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        result = run_layout(
            compiled, layout, ["4"],
            options=RunOptions(
                trace_path=str(trace), metrics_path=str(metrics)
            ),
        )
        assert result.events is not None  # sink paths imply observation
        assert json.loads(trace.read_text())["traceEvents"]
        assert json.loads(metrics.read_text())

    def test_all_default_run_options_take_no_config_path(self):
        compiled = load_benchmark("Keyword")
        layout = single_core_layout(compiled)
        bare = run_layout(compiled, layout, ["4"])
        optioned = run_layout(compiled, layout, ["4"], options=RunOptions())
        assert RunOptions().machine_config() is None
        assert bare.total_cycles == optioned.total_cycles
        assert bare.events is None and optioned.events is None


class TestDSAEngineWiring:
    def test_dsa_owns_and_closes_its_evaluator(self):
        compiled = load_benchmark("Keyword")
        profile = profile_program(compiled, SMALL_ARGS["Keyword"])
        dsa = DirectedSimulatedAnnealing(
            compiled, profile, 4,
            config=AnnealConfig(seed=7, **SMALL_ANNEAL), workers=2,
        )
        try:
            result = dsa.run()
        finally:
            dsa.close()
        assert result.best_cycles > 0
        assert result.requested_evaluations == (
            result.evaluations + result.cache_hits
        )
        assert result.cache_stats is not None
        assert result.cache_stats["hits"] == result.cache_hits

    def test_use_cache_false_disables_memoization(self):
        compiled = load_benchmark("Keyword")
        profile = profile_program(compiled, SMALL_ARGS["Keyword"])
        dsa = DirectedSimulatedAnnealing(
            compiled, profile, 4,
            config=AnnealConfig(seed=7, **SMALL_ANNEAL), use_cache=False,
        )
        try:
            result = dsa.run()
        finally:
            dsa.close()
        assert result.cache_hits == 0
        assert result.cache_stats is None
