"""Host-level fault tolerance of the layout search.

Four contracts are enforced here, mirroring the simulated-machine
resilience suite (``test_resilience.py``/``test_chaos.py``) one level up:

* **Supervision transparency** — a search through the supervised pool
  (deadlines, bounded retries, pool rebuilds, serial degradation) is
  bit-identical to a serial one when fault-free, and bit-identical to
  the fault-free run under injected worker crashes and hangs.
  Supervision may only rescue work, never change it.
* **Bounded recovery** — retry exhaustion falls back to in-process
  simulation; repeated pool failures degrade the evaluator to serial
  mode; both paths still produce the serial backend's exact results.
* **Checkpoint integrity** — checkpoints round-trip, corruption and
  format mismatches are detected before unpickling, and a resume under a
  different anneal schedule is refused.
* **Resume bit-identity** — a search resumed from a checkpoint (periodic
  or interrupt-time) finishes bit-identical to an uninterrupted run, on
  every benchmark.
"""

import os
import random

import pytest

from test_search import (
    SMALL_ANNEAL,
    SMALL_ARGS,
    _keyword_layout_pool,
    report_fingerprint,
    small_profile,
    small_synthesis,
)

from repro.bench import benchmark_names, get_spec, load_benchmark
from repro.core import SynthesisOptions, synthesize_layout
from repro.obs import CheckpointWritten, PoolRebuild, WorkerRetry
from repro.schedule.anneal import AnnealConfig, DirectedSimulatedAnnealing
from repro.search import (
    CheckpointError,
    HostChaosPlan,
    HostFault,
    ParallelEvaluator,
    RetryPolicy,
    SearchCheckpoint,
    SerialEvaluator,
    read_checkpoint,
    run_host_chaos,
    write_checkpoint,
)

#: Fast-failure knobs for evaluator-level fault tests: short deadlines,
#: near-zero backoff, so injected hangs cost fractions of a second.
FAST_POLICY = RetryPolicy(
    timeout_mult=4.0, timeout_floor=0.4, max_retries=2,
    backoff_base=0.01, backoff_cap=0.05,
)


def _keyword_evaluators(chaos=None, policy=FAST_POLICY, workers=2):
    compiled = load_benchmark("Keyword")
    profile = small_profile("Keyword")
    serial = SerialEvaluator(compiled, profile)
    supervised = ParallelEvaluator(
        compiled, profile, workers=workers, policy=policy, chaos=chaos,
    )
    return serial, supervised


def _cycles(outcome):
    return [item.cycles for item in outcome.scored]


def crash_plan(*dispatches):
    return HostChaosPlan(
        faults=tuple(HostFault(d, "crash") for d in dispatches)
    )


class TestSupervisedEvaluator:
    def test_fault_free_supervision_is_transparent(self):
        base = small_synthesis("Keyword", workers=1)
        supervised = small_synthesis("Keyword", workers=2)
        assert report_fingerprint(supervised) == report_fingerprint(base)
        stats = supervised.search_metrics["supervision"]
        assert stats["worker_retries"] == 0
        assert stats["pool_rebuilds"] == 0
        assert stats["serial_fallbacks"] == 0
        assert stats["degraded"] is False
        assert supervised.search_metrics["events"] == []

    def test_injected_crash_is_rescued_bit_identically(self):
        layouts = _keyword_layout_pool(count=6)
        serial, supervised = _keyword_evaluators(chaos=crash_plan(0))
        with serial, supervised:
            expected = _cycles(serial.evaluate(layouts))
            got = _cycles(supervised.evaluate(layouts))
        assert got == expected
        assert supervised.stats.injected_crashes == 1
        assert supervised.stats.worker_retries >= 1
        assert supervised.stats.pool_rebuilds >= 1
        kinds = [event.kind for event in supervised.stats.events]
        assert "worker_retry" in kinds and "pool_rebuild" in kinds

    def test_injected_hang_breaches_deadline_and_is_rescued(self):
        layouts = _keyword_layout_pool(count=4)
        chaos = HostChaosPlan(faults=(HostFault(1, "hang"),))
        serial, supervised = _keyword_evaluators(chaos=chaos)
        with serial, supervised:
            expected = _cycles(serial.evaluate(layouts))
            got = _cycles(supervised.evaluate(layouts))
        assert got == expected
        assert supervised.stats.injected_hangs == 1
        assert supervised.stats.pool_rebuilds >= 1
        reasons = {
            event.reason
            for event in supervised.stats.events
            if isinstance(event, WorkerRetry)
        }
        assert "deadline" in reasons

    def test_retry_exhaustion_falls_back_to_serial(self):
        # Crash every dispatch: each task burns its max_retries pool
        # attempts, then the in-process fallback must still produce the
        # serial backend's exact results.
        layouts = _keyword_layout_pool(count=3)
        serial, supervised = _keyword_evaluators(
            chaos=crash_plan(*range(40)),
            policy=RetryPolicy(
                timeout_mult=4.0, timeout_floor=0.4, max_retries=2,
                max_pool_failures=10, backoff_base=0.01, backoff_cap=0.05,
            ),
        )
        with serial, supervised:
            expected = _cycles(serial.evaluate(layouts))
            got = _cycles(supervised.evaluate(layouts))
        assert got == expected
        assert supervised.stats.serial_fallbacks == len(layouts)

    def test_repeated_pool_failures_degrade_to_serial_mode(self):
        layouts = _keyword_layout_pool(count=4)
        policy = RetryPolicy(
            timeout_mult=4.0, timeout_floor=0.4, max_retries=3,
            max_pool_failures=1, backoff_base=0.01, backoff_cap=0.05,
        )
        serial, supervised = _keyword_evaluators(
            chaos=crash_plan(0), policy=policy
        )
        with serial, supervised:
            expected = _cycles(serial.evaluate(layouts))
            got = _cycles(supervised.evaluate(layouts))
            assert got == expected
            assert supervised.stats.degraded is True
            # Degradation is permanent: later batches take the serial
            # path with no pool at all.
            before = supervised.stats.dispatches
            again = _cycles(supervised.evaluate(layouts))
        assert again == expected
        assert supervised.stats.dispatches == before

    def test_pool_broken_at_submit_degrades_gracefully(self):
        layouts = _keyword_layout_pool(count=3)
        serial, supervised = _keyword_evaluators(policy=RetryPolicy(
            timeout_mult=4.0, timeout_floor=0.4, max_retries=2,
            max_pool_failures=1, backoff_base=0.01, backoff_cap=0.05,
        ))

        def broken_pool():
            raise RuntimeError("cannot fork")

        supervised._pool = broken_pool
        with serial, supervised:
            expected = _cycles(serial.evaluate(layouts))
            got = _cycles(supervised.evaluate(layouts))
        assert got == expected
        assert supervised.stats.degraded is True
        assert supervised.stats.pool_rebuilds >= 1

    def test_cache_survives_pool_rebuild(self):
        from repro.search import SimCache

        layouts = _keyword_layout_pool(count=5)
        compiled = load_benchmark("Keyword")
        profile = small_profile("Keyword")
        cache = SimCache()
        with ParallelEvaluator(
            compiled, profile, workers=2, cache=cache,
            policy=FAST_POLICY, chaos=crash_plan(1),
        ) as supervised:
            first = supervised.evaluate(layouts)
            assert supervised.stats.pool_rebuilds >= 1
            # Everything the crash interrupted was retried into the
            # cache; the rebuilt pool is never consulted again.
            second = supervised.evaluate(layouts)
        assert first.simulations == len(layouts)
        assert second.simulations == 0
        assert second.cache_hits == len(layouts)
        assert _cycles(second) == _cycles(first)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_mult=0).validate()
        with pytest.raises(ValueError):
            RetryPolicy(ewma_alpha=0.0).validate()
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=0).validate()


class TestHostChaosHarness:
    def test_plan_zero_is_the_control(self):
        assert HostChaosPlan.make(0, seed=5, horizon=100).is_empty()

    def test_plans_are_deterministic(self):
        first = HostChaosPlan.make(2, seed=9, horizon=50)
        second = HostChaosPlan.make(2, seed=9, horizon=50)
        assert first == second
        assert not first.is_empty()
        assert all(f.dispatch < 50 for f in first.faults)

    def test_host_chaos_needs_a_worker_pool(self):
        # A serial search has no workers to fault: the plan is refused,
        # not silently dropped into a plain search that fires nothing.
        with pytest.raises(ValueError, match="workers >= 2"):
            small_synthesis("Keyword", workers=1, host_chaos=crash_plan(0))

    def test_sweep_invariants_hold(self):
        compiled = load_benchmark("Keyword")
        profile = small_profile("Keyword")
        options = SynthesisOptions(
            anneal=AnnealConfig(seed=7, **SMALL_ANNEAL),
            hints=get_spec("Keyword").hints,
        )
        # The control plan must stay activity-free, so its deadline floor
        # needs headroom over a cold pool spawn — don't use FAST_POLICY.
        report = run_host_chaos(
            compiled, profile, 4, options=options, runs=3, base_seed=3,
            policy=RetryPolicy(
                timeout_mult=8.0, timeout_floor=2.0, max_retries=3,
                backoff_base=0.01, backoff_cap=0.1,
            ),
        )
        assert report.ok, report.describe()
        fired = report.total("injected_crashes") + report.total(
            "injected_hangs"
        )
        assert fired >= 1
        assert report.total("worker_retries") >= fired
        assert "all invariants held" in report.describe()

    def test_diverged_result_is_flagged(self):
        # The checker itself must catch a lying run.
        from dataclasses import replace

        from repro import chaos
        from repro.search.hostchaos import (
            HostChaosReport,
            HostChaosRun,
            _check_run,
        )

        baseline = small_synthesis("Keyword", workers=1)
        forged = replace(baseline, estimated_cycles=baseline.estimated_cycles + 1)
        run = HostChaosRun(
            index=1, seed=1, plan=crash_plan(0), report=forged,
            supervision={"injected_crashes": 1, "worker_retries": 1,
                         "pool_rebuilds": 1},
        )
        _check_run(run, baseline)
        assert any("diverged" in v for v in run.violations)

        # The shared checks: a control plan with one nonzero counter, and
        # a plan whose run raises.
        control = HostChaosRun(
            index=0, seed=0, plan=crash_plan(), report=baseline,
            supervision={"dispatches": 9, "worker_retries": 1},
        )
        _check_run(control, baseline)
        assert control.violations == [
            "control plan recorded activity: {'worker_retries': 1}"
        ]

        def raises(run):
            raise RuntimeError("pool lost")

        (raised,) = chaos.sweep(
            HostChaosRun, 1, 5, lambda index, seed: crash_plan(3), raises
        )
        assert raised.error == "RuntimeError: pool lost"
        report = HostChaosReport(runs=[run, control, raised])
        assert not report.ok
        assert "plan 0 (seed 5): RuntimeError: pool lost" in report.violations()


class TestCheckpointFile:
    def _checkpoint(self):
        layout = _keyword_layout_pool(count=1)[0]
        return SearchCheckpoint(
            iteration=2,
            rng_state=random.Random(3).getstate(),
            best_layout=layout,
            best_cycles=1234,
            candidates=[layout],
            history=[2000, 1234],
            patience=1,
            evaluations=17,
            cache_hits=4,
            initial_layouts=[layout],
            config_digest="abc123",
        )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "search.ckpt")
        original = self._checkpoint()
        write_checkpoint(path, original)
        loaded = read_checkpoint(path)
        assert loaded.iteration == original.iteration
        assert loaded.rng_state == original.rng_state
        assert loaded.best_cycles == original.best_cycles
        assert loaded.best_layout.as_dict() == original.best_layout.as_dict()
        assert loaded.history == original.history
        assert loaded.evaluations == original.evaluations
        assert loaded.config_digest == original.config_digest
        # The atomic write leaves no temp file behind.
        assert not os.path.exists(path + ".tmp")

    def test_corruption_is_detected(self, tmp_path):
        path = str(tmp_path / "search.ckpt")
        write_checkpoint(path, self._checkpoint())
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            read_checkpoint(path)

    def test_non_checkpoint_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "junk")
        open(path, "wb").write(b"\x80\x04not a checkpoint")
        with pytest.raises(CheckpointError, match="not a search checkpoint"):
            read_checkpoint(path)

    def test_unknown_format_is_rejected(self, tmp_path):
        path = str(tmp_path / "old.ckpt")
        open(path, "wb").write(
            b'{"digest": "", "format": "repro.search/checkpoint-v0"}\n'
        )
        with pytest.raises(CheckpointError, match="checkpoint-v0"):
            read_checkpoint(path)

    def test_newer_version_refused_naming_both_versions(self, tmp_path):
        # A structurally valid record from a future release: correct
        # digest, correct framing, just a format this version doesn't
        # speak. The refusal must be the typed cross-version error that
        # names both versions — not a digest or unpickling failure.
        from repro.search.storage import write_pickle_record

        path = str(tmp_path / "future.ckpt")
        write_pickle_record(
            path, "repro.search/checkpoint-v999", {"from": "the future"}
        )
        with pytest.raises(CheckpointError) as excinfo:
            read_checkpoint(path)
        message = str(excinfo.value)
        assert "repro.search/checkpoint-v999" in message
        assert "repro.search/checkpoint-v4" in message
        assert "digest" not in message
        assert "pickle" not in message

    def test_v2_checkpoint_refused_naming_both_versions(self, tmp_path):
        # v2 carried move hints and session snapshots that v3 dropped, and
        # v3 the early-cutoff prune counter that v4 dropped; the policy is
        # to refuse old versions, never migrate them.
        from repro.search.storage import write_pickle_record

        for old in ("checkpoint-v2", "checkpoint-v3"):
            path = str(tmp_path / f"{old}.ckpt")
            write_pickle_record(
                path, f"repro.search/{old}", self._checkpoint()
            )
            with pytest.raises(CheckpointError) as excinfo:
                read_checkpoint(path)
            message = str(excinfo.value)
            assert f"repro.search/{old}" in message
            assert "repro.search/checkpoint-v4" in message
            assert "digest" not in message
            assert "pickle" not in message

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(str(tmp_path / "absent.ckpt"))


def _small_options(name, **kw):
    return SynthesisOptions(
        anneal=kw.pop("anneal", AnnealConfig(seed=7, **SMALL_ANNEAL)),
        hints=get_spec(name).hints,
        **kw,
    )


class TestResume:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_resumed_run_is_bit_identical_on_every_benchmark(
        self, name, tmp_path
    ):
        from dataclasses import replace

        compiled = load_benchmark(name)
        profile = small_profile(name)
        full = AnnealConfig(seed=7, **SMALL_ANNEAL)
        uninterrupted = synthesize_layout(
            compiled, profile, 4, options=_small_options(name, anneal=full)
        )
        path = str(tmp_path / "search.ckpt")
        # "Interrupt" after one iteration (max_iterations is a pure stop
        # condition, excluded from the compatibility digest)...
        partial = synthesize_layout(
            compiled, profile, 4,
            options=_small_options(
                name, anneal=replace(full, max_iterations=1),
                checkpoint_path=path,
            ),
        )
        assert partial.iterations == 1
        assert os.path.exists(path)
        # ...then resume under the full schedule.
        resumed = synthesize_layout(
            compiled, profile, 4,
            options=_small_options(name, anneal=full, resume=path),
        )
        assert report_fingerprint(resumed) == report_fingerprint(uninterrupted)

    def test_resume_restores_cache_counters(self, tmp_path):
        from dataclasses import replace

        compiled = load_benchmark("Keyword")
        profile = small_profile("Keyword")
        full = AnnealConfig(seed=7, **SMALL_ANNEAL)
        uninterrupted = synthesize_layout(
            compiled, profile, 4, options=_small_options("Keyword", anneal=full)
        )
        path = str(tmp_path / "search.ckpt")
        synthesize_layout(
            compiled, profile, 4,
            options=_small_options(
                "Keyword", anneal=replace(full, max_iterations=1),
                checkpoint_path=path,
            ),
        )
        resumed = synthesize_layout(
            compiled, profile, 4,
            options=_small_options("Keyword", anneal=full, resume=path),
        )
        # The checkpoint carries the cache counters, so the resumed
        # run's telemetry matches the uninterrupted one.
        assert (
            resumed.search_metrics["sim_cache"]
            == uninterrupted.search_metrics["sim_cache"]
        )

    def test_resume_under_changed_schedule_is_refused(self, tmp_path):
        from dataclasses import replace

        compiled = load_benchmark("Keyword")
        profile = small_profile("Keyword")
        config = AnnealConfig(seed=7, **SMALL_ANNEAL)
        path = str(tmp_path / "search.ckpt")
        synthesize_layout(
            compiled, profile, 4,
            options=_small_options(
                "Keyword", anneal=replace(config, max_iterations=1),
                checkpoint_path=path,
            ),
        )
        with pytest.raises(CheckpointError, match="different"):
            synthesize_layout(
                compiled, profile, 4,
                options=_small_options(
                    "Keyword", anneal=replace(config, seed=8), resume=path
                ),
            )

    def test_interrupt_mid_iteration_saves_the_last_boundary(self, tmp_path):
        """A KeyboardInterrupt inside iteration N checkpoints the boundary
        after iteration N-1, and resuming replays N bit-identically."""

        class InterruptOnCall:
            def __init__(self, inner, after):
                self.inner = inner
                self.remaining = after

            def evaluate(self, *args, **kwargs):
                if self.remaining == 0:
                    raise KeyboardInterrupt
                self.remaining -= 1
                return self.inner.evaluate(*args, **kwargs)

            def close(self):
                self.inner.close()

        compiled = load_benchmark("Keyword")
        profile = small_profile("Keyword")
        config = AnnealConfig(seed=7, **SMALL_ANNEAL)
        hints = get_spec("Keyword").hints
        with DirectedSimulatedAnnealing(
            compiled, profile, 4, config=config, hints=hints
        ) as dsa:
            uninterrupted = dsa.run()
        path = str(tmp_path / "search.ckpt")
        dsa = DirectedSimulatedAnnealing(
            compiled, profile, 4, config=config, hints=hints,
            checkpoint_path=path,
        )
        dsa.evaluator = InterruptOnCall(dsa.evaluator, after=2)
        with pytest.raises(KeyboardInterrupt):
            with dsa:
                dsa.run()
        saved = read_checkpoint(path)
        assert saved.iteration == 2
        with DirectedSimulatedAnnealing(
            compiled, profile, 4, config=config, hints=hints, resume=path
        ) as dsa:
            resumed = dsa.run()
        assert resumed.best_cycles == uninterrupted.best_cycles
        assert resumed.best_layout.as_dict() == (
            uninterrupted.best_layout.as_dict()
        )
        assert resumed.history == uninterrupted.history
        assert resumed.evaluations == uninterrupted.evaluations
        assert resumed.cache_hits == uninterrupted.cache_hits

    def test_periodic_checkpoint_accounting_is_resume_invariant(
        self, tmp_path
    ):
        """checkpoints_written and the CheckpointWritten events of a
        resumed run match an uninterrupted checkpointed run exactly."""
        from dataclasses import replace

        compiled = load_benchmark("Keyword")
        profile = small_profile("Keyword")
        config = AnnealConfig(seed=7, **SMALL_ANNEAL)
        hints = get_spec("Keyword").hints
        base_path = str(tmp_path / "base.ckpt")
        with DirectedSimulatedAnnealing(
            compiled, profile, 4, config=config, hints=hints,
            checkpoint_path=base_path,
        ) as dsa:
            baseline = dsa.run()
        part_path = str(tmp_path / "part.ckpt")
        with DirectedSimulatedAnnealing(
            compiled, profile, 4,
            config=replace(config, max_iterations=1), hints=hints,
            checkpoint_path=part_path,
        ) as dsa:
            dsa.run()
        with DirectedSimulatedAnnealing(
            compiled, profile, 4, config=config, hints=hints,
            checkpoint_path=part_path, resume=part_path,
        ) as dsa:
            resumed = dsa.run()
        assert resumed.checkpoints_written == baseline.checkpoints_written
        base_events = [
            event.to_json()
            for event in baseline.host_events
            if isinstance(event, CheckpointWritten)
        ]
        resumed_events = [
            event.to_json()
            for event in resumed.host_events
            if isinstance(event, CheckpointWritten)
        ]
        assert resumed_events == base_events
