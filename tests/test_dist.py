"""The distributed layout search (:mod:`repro.search.dist`).

Contract under test, mirroring the suite layering of
``test_search_resilience.py`` one level up: shards are pure, the
reduction is input-deterministic, and therefore the distributed search
is **bit-identical to the single-host serial baseline** no matter how
many workers run, steal, crash, or disconnect — and a coordinator
killed mid-job resumes from its frontier checkpoint to the same answer.

The full fault matrix (worker SIGKILL, dropped/garbled connections,
forced lease expiries, interrupt + resume) lives in the
machine-checked harness :func:`repro.search.dist.chaos.run_dist_chaos`,
swept over three plans here (:class:`TestDistChaosSweep`) and four in
CI; elsewhere we keep per-test workloads tiny and use in-thread workers
wherever the fault does not require killing a real process.
"""

import dataclasses
import hashlib
import threading
import time

import pytest

from repro.bench import get_spec, load_source
from repro.core import compile_program, profile_program
from repro.schedule.anneal import AnnealConfig
from repro.search.dist import (
    DistChaosPlan,
    DistCoordinator,
    DistError,
    DistProtocolError,
    JobContext,
    LeasePolicy,
    describe_dist_result,
    execute_shard,
    make_restart_shards,
    merge_shard_results,
    result_key,
    run_dist_search,
    run_dist_worker,
    run_serial_baseline,
)
from repro.search.dist.chaos import run_dist_chaos
from repro.search.dist.messages import (
    DIST_PROTOCOL,
    JOB_FORMAT,
    SHARD_FORMAT,
    check_hello,
    pack_payload,
    unpack_payload,
)

#: one shard finishes well under a second with this schedule
SMALL_TEMPLATE = AnnealConfig(
    initial_candidates=1,
    max_iterations=3,
    max_evaluations=30,
    patience=2,
    continue_probability=0.2,
)

_JOB = {}


def small_job(restarts=4):
    """A cached (context, shards) pair for the Keyword benchmark."""
    if "context" not in _JOB:
        spec = get_spec("Keyword")
        source = load_source("Keyword")
        compiled = compile_program(source, spec.filename)
        profile = profile_program(compiled, ["8"])
        _JOB["context"] = JobContext(
            compiled=compiled,
            profile=profile,
            num_cores=4,
            source_digest=hashlib.sha256(source.encode()).hexdigest(),
        )
    context = _JOB["context"]
    key = ("shards", restarts)
    if key not in _JOB:
        _JOB[key] = make_restart_shards(
            SMALL_TEMPLATE, restarts, base_seed=1234
        )
    return context, _JOB[key]


def baseline_key(restarts=4):
    key = ("baseline", restarts)
    if key not in _JOB:
        context, shards = small_job(restarts)
        _JOB[key] = run_serial_baseline(context, shards).key()
    return _JOB[key]


def worker_thread(port, name="t0", stats=None):
    """A real protocol worker, in-process (no crash faults here); its
    ``WorkerStats`` land in ``stats[name]`` when it returns."""

    def serve():
        result = run_dist_worker("127.0.0.1", port, name, idle_timeout=30.0)
        if stats is not None:
            stats[name] = result

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


class TestMessages:
    def test_payload_round_trip(self):
        packed = pack_payload(JOB_FORMAT, {"answer": 42})
        assert unpack_payload(packed, JOB_FORMAT) == {"answer": 42}

    def test_garbled_payload_refused_before_unpickling(self):
        import base64

        record = bytearray(
            base64.b64decode(pack_payload(JOB_FORMAT, {"answer": 42}))
        )
        record[-1] ^= 0xFF  # flip one pickle byte; digest must catch it
        garbled = base64.b64encode(bytes(record)).decode("ascii")
        with pytest.raises(DistProtocolError) as excinfo:
            unpack_payload(garbled, JOB_FORMAT)
        assert "digest" in str(excinfo.value)

    def test_cross_format_payload_names_both_formats(self):
        packed = pack_payload(JOB_FORMAT, {"answer": 42})
        with pytest.raises(DistProtocolError) as excinfo:
            unpack_payload(packed, SHARD_FORMAT)
        assert excinfo.value.code == "format_mismatch"
        assert JOB_FORMAT in str(excinfo.value)
        assert SHARD_FORMAT in str(excinfo.value)

    def test_v1_shard_payload_refused(self):
        # dist-shard-v1 pickled an AnnealConfig with five more fields,
        # dist-shard-v2 one with checkpoint_every.
        for old in ("dist-shard-v1", "dist-shard-v2"):
            packed = pack_payload(f"repro.search/{old}", {"answer": 42})
            with pytest.raises(DistProtocolError) as excinfo:
                unpack_payload(packed, SHARD_FORMAT)
            assert excinfo.value.code == "format_mismatch"
            assert f"repro.search/{old}" in str(excinfo.value)

    def test_non_base64_payload_refused(self):
        with pytest.raises(DistProtocolError) as excinfo:
            unpack_payload("!!! not base64 !!!", JOB_FORMAT)
        assert excinfo.value.code == "not_record"

    def test_hello_validation(self):
        assert check_hello(
            {"op": "hello", "proto": DIST_PROTOCOL, "worker": "w0", "pid": 7}
        ) == ("w0", 7)
        with pytest.raises(DistProtocolError) as excinfo:
            check_hello({"op": "hello", "proto": "repro.search/dist-v0"})
        assert excinfo.value.code == "proto_mismatch"
        assert DIST_PROTOCOL in str(excinfo.value)
        with pytest.raises(DistProtocolError) as excinfo:
            check_hello({"op": "result"})
        assert excinfo.value.code == "bad_hello"


class TestShards:
    def test_make_restart_shards_is_deterministic(self):
        a = make_restart_shards(SMALL_TEMPLATE, 6, base_seed=1234)
        b = make_restart_shards(SMALL_TEMPLATE, 6, base_seed=1234)
        assert [s.shard_id for s in a] == list(range(6))
        assert [s.config.seed for s in a] == [s.config.seed for s in b]
        assert len({s.config.seed for s in a}) == 6
        other = make_restart_shards(SMALL_TEMPLATE, 6, base_seed=99)
        assert [s.config.seed for s in a] != [s.config.seed for s in other]

    def test_shard_execution_is_pure(self):
        context, shards = small_job()
        first = execute_shard(context, shards[0])
        again = execute_shard(context, shards[0])
        assert result_key(first) == result_key(again)
        assert first.wall_seconds >= 0.0

    def test_merge_is_order_independent_and_tie_breaks_low(self):
        context, shards = small_job(3)
        results = {
            s.shard_id: execute_shard(context, s) for s in shards
        }
        forward = merge_shard_results(dict(sorted(results.items())), 3)
        backward = merge_shard_results(
            dict(sorted(results.items(), reverse=True)), 3
        )
        assert forward.key() == backward.key()
        # A manufactured tie: shard 2 claims shard 0's winning cycles.
        tied = dict(results)
        tied[2] = dataclasses.replace(
            results[2], best_cycles=forward.best_cycles
        )
        merged = merge_shard_results(tied, 3)
        lowest = min(
            sid
            for sid, r in tied.items()
            if r.best_cycles == merged.best_cycles
        )
        assert (
            merged.best_layout.as_dict()
            == tied[lowest].best_layout.as_dict()
        )

    def test_describe_has_no_wall_clocks(self):
        # CI diffs this output across execution modes byte for byte.
        context, shards = small_job(2)
        text = describe_dist_result(run_serial_baseline(context, shards))
        assert "wall" not in text and "second" not in text


class TestBitIdentity:
    def test_zero_worker_dist_matches_serial(self):
        context, shards = small_job()
        result = run_dist_search(context, shards, workers=0)
        assert result.key() == baseline_key()
        assert result.stats["local_executions"] == len(shards)
        assert result.stats["dispatches"] == 0

    def test_threaded_workers_match_serial(self):
        context, shards = small_job()
        coordinator = DistCoordinator(
            context, shards, expect_workers=2, degrade_after=30.0
        )
        host, port = coordinator.start()
        threads = [worker_thread(port, f"t{i}") for i in range(2)]
        try:
            result = coordinator.run()
        finally:
            coordinator.stop()
        for thread in threads:
            thread.join(timeout=10.0)
        assert result.key() == baseline_key()
        assert result.stats["workers_joined"] == 2
        assert result.stats["shards_completed"] == len(shards)

    def test_finished_job_says_bye_to_every_worker(self, monkeypatch):
        """Hold each serve thread's own ``bye`` until stop() has closed its
        connection: stop() must have said it, or the worker reads EOF,
        takes the coordinator for lost and reconnects."""
        from repro.search.dist import coordinator as coordinator_module

        send = coordinator_module.send_message

        def held_send(conn, message):
            if (
                message.get("op") == "bye"
                and threading.current_thread() is not threading.main_thread()
            ):
                deadline = time.monotonic() + 10.0
                while conn.fileno() != -1 and time.monotonic() < deadline:
                    time.sleep(0.005)
            send(conn, message)

        monkeypatch.setattr(coordinator_module, "send_message", held_send)
        context, shards = small_job()
        coordinator = DistCoordinator(
            context, shards, expect_workers=2, degrade_after=30.0
        )
        host, port = coordinator.start()
        stats = {}
        threads = [worker_thread(port, f"t{i}", stats) for i in range(2)]
        try:
            result = coordinator.run()
        finally:
            coordinator.stop()
        for thread in threads:
            thread.join(timeout=30.0)
        assert result.key() == baseline_key()
        assert result.stats["workers_joined"] == 2
        assert {name: s.reconnects for name, s in stats.items()} == {
            "t0": 0,
            "t1": 0,
        }

    def test_subprocess_workers_under_chaos_match_serial(self):
        # Real worker processes, a crash and a forced lease expiry: the
        # canonical smoke the CI job runs through the CLI.
        context, shards = small_job()
        plan = DistChaosPlan.scripted(crash=(2,), expire=(3,))
        result = run_dist_search(
            context,
            shards,
            workers=2,
            lease=LeasePolicy(timeout_floor=2.0),
            chaos_plan=plan,
        )
        assert result.key() == baseline_key()
        stats = result.stats
        assert stats["injected_crashes"] == 1
        assert stats["worker_crashes"] >= 1
        assert stats["retries"] >= 1
        assert stats["forced_lease_expiries"] == 1
        assert stats["steals"] >= 1


class TestLeases:
    def test_lease_policy_validates(self):
        with pytest.raises(ValueError):
            LeasePolicy(timeout_floor=0.0).validate()
        with pytest.raises(ValueError):
            LeasePolicy(ewma_alpha=0.0).validate()
        with pytest.raises(ValueError):
            LeasePolicy(max_retries=0).validate()

    def test_deadline_floor_and_ewma(self):
        policy = LeasePolicy(timeout_floor=10.0, timeout_mult=8.0)
        assert policy.deadline_seconds(None) == 10.0
        assert policy.deadline_seconds(0.5) == 10.0  # floor dominates
        assert policy.deadline_seconds(5.0) == 40.0

    def test_forced_expiry_steals_and_discards_duplicate(self):
        context, shards = small_job()
        coordinator = DistCoordinator(
            context,
            shards,
            lease=LeasePolicy(timeout_floor=2.0),
            expect_workers=1,
            degrade_after=30.0,
            chaos_plan=DistChaosPlan.scripted(expire=(1,)),
        )
        host, port = coordinator.start()
        thread = worker_thread(port)
        try:
            result = coordinator.run()
        finally:
            coordinator.stop()
        thread.join(timeout=10.0)
        assert result.key() == baseline_key()
        stats = result.stats
        assert stats["forced_lease_expiries"] == 1
        assert stats["lease_expiries"] >= 1
        assert stats["steals"] >= 1
        # First result per shard won; any second execution of the stolen
        # shard was discarded or abandoned, never double-counted.
        assert stats["shards_completed"] == len(shards)
        assert coordinator.stats.check_accounting() == []


class TestDegradation:
    def test_empty_worker_set_degrades_to_local(self):
        context, shards = small_job()
        coordinator = DistCoordinator(
            context, shards, expect_workers=2, degrade_after=0.2
        )
        try:
            result = coordinator.run()
        finally:
            coordinator.stop()
        assert result.key() == baseline_key()
        assert result.stats["degraded"] is True
        assert result.stats["local_executions"] == len(shards)
        assert result.stats["workers_joined"] == 0


class TestFrontierResume:
    def _interrupted_coordinator(self, context, shards, path, completed=2):
        """Runs ``completed`` shards locally, then vanishes without a
        clean shutdown — the coordinator-kill scenario."""
        first = DistCoordinator(
            context, shards, checkpoint_path=path, expect_workers=0
        )
        while first.stats.shards_completed < completed:
            assert first._maybe_run_local()
        assert first.stats.frontier_checkpoints >= 1
        return first

    def test_killed_coordinator_resumes_bit_identically(self, tmp_path):
        context, shards = small_job()
        path = str(tmp_path / "frontier.ckpt")
        self._interrupted_coordinator(context, shards, path)
        second = DistCoordinator(
            context,
            shards,
            checkpoint_path=path,
            resume=True,
            expect_workers=0,
        )
        try:
            result = second.run()
        finally:
            second.stop()
        assert result.stats["resumed_shards"] == 2
        assert result.stats["local_executions"] == len(shards) - 2
        assert result.key() == baseline_key()

    def test_foreign_frontier_refused_with_typed_error(self, tmp_path):
        context, shards = small_job()
        path = str(tmp_path / "frontier.ckpt")
        self._interrupted_coordinator(context, shards, path)
        # A different shard list is a different job digest.
        with pytest.raises(DistError, match="different"):
            DistCoordinator(
                context,
                shards[:-1],
                checkpoint_path=path,
                resume=True,
            )

    def test_resume_without_checkpoint_path_refused(self):
        context, shards = small_job()
        with pytest.raises(DistError, match="checkpoint path"):
            DistCoordinator(context, shards, resume=True)


class TestDistChaosPlan:
    def test_sweep_plans_are_deterministic(self):
        for index in range(4):
            a = DistChaosPlan.make(index, seed=index, horizon=6)
            b = DistChaosPlan.make(index, seed=index, horizon=6)
            assert a == b

    def test_plan_zero_is_the_control(self):
        plan = DistChaosPlan.make(0, seed=7, horizon=6)
        assert plan.is_empty()
        assert plan.dispatch_faults == () and plan.wire_faults == ()
        assert not plan.kill_worker

    def test_scripted_maps_cli_flags(self):
        plan = DistChaosPlan.scripted(
            crash=(2,), hang=(4,), expire=(5,), hang_seconds=1.5
        )
        assert plan.dispatch_fault(2) == ("crash_worker", None)
        assert plan.dispatch_fault(4) == ("hang_worker", 1.5)
        assert plan.dispatch_fault(5) == ("expire_lease", None)
        assert plan.dispatch_fault(1) is None
        assert not plan.is_empty()

    def test_fault_families_rotate_across_a_sweep(self):
        plans = [
            DistChaosPlan.make(index, seed=index, horizon=8)
            for index in range(6)
        ]
        assert any(p.wire_faults for p in plans)
        assert any(p.kill_worker for p in plans)
        assert any(p.dispatch_faults for p in plans)


@pytest.mark.timeout(300)
class TestDistChaosSweep:
    def test_small_sweep_fires_and_classifies_faults(self):
        """Three plans against real workers behind the fault proxy: plan 0
        the control, plan 1 a worker crash, plan 2 a crash, two garbled
        messages and a worker SIGKILL, then the resume phase."""
        report = run_dist_chaos(plans=3)
        assert report.ok, report.describe()
        crash, wired = report.runs[1], report.runs[2]
        # A worker that dies behind the proxy reads as a crash at once,
        # not as a hang found when its lease expires.
        assert [f.kind for f in crash.plan.dispatch_faults] == [
            "crash_worker"
        ]
        assert crash.stats["worker_crashes"] >= 1
        assert crash.stats["worker_hangs"] == 0
        assert crash.stats["lease_expiries"] == 0
        # Every planned wire fault fired and reached the report.
        assert wired.plan.wire_faults
        assert wired.wire_fired == [
            (fault.key, fault.kind) for fault in wired.plan.wire_faults
        ]
        assert report.resumed_shards >= 1


class TestCli:
    def test_dist_parser_registers_all_three_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["dist-coordinator", "Keyword", "--serial", "--restarts", "2"]
        )
        assert args.serial and args.restarts == 2
        args = parser.parse_args(["dist-worker", "--port", "9999"])
        assert args.port == 9999
        args = parser.parse_args(["dist-chaos", "2", "--seed", "5"])
        assert args.plans == 2 and args.seed == 5

    def test_serial_cli_run(self, capsys, tmp_path):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "dist-coordinator",
                    "Keyword",
                    "8",
                    "--serial",
                    "--cores",
                    "4",
                    "--restarts",
                    "2",
                    "--initial-candidates",
                    "1",
                    "--max-iterations",
                    "2",
                    "--max-evaluations",
                    "20",
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "best" in out or "cycles" in out
        import json

        snapshot = json.loads(metrics.read_text())
        assert "dist" in snapshot

    def test_prom_out_exports_the_dist_block(self, tmp_path):
        # The Prometheus series are folded from the same DistStats
        # snapshot the JSON carries: one sample per nonzero integer.
        import json

        from repro.cli import main
        from repro.obs.promexp import validate_prometheus_text

        metrics, prom = tmp_path / "metrics.json", tmp_path / "dist.prom"
        argv = [
            "dist-coordinator", "Keyword", "8", "--cores", "4",
            "--restarts", "2", "--initial-candidates", "1",
            "--max-iterations", "2", "--max-evaluations", "20",
            "--metrics-out", str(metrics), "--prom-out", str(prom),
        ]
        assert main(argv) == 0
        dist = json.loads(metrics.read_text())["dist"]
        text = prom.read_text()
        validate_prometheus_text(text)
        samples = {
            line.split()[0]: int(line.split()[1])
            for line in text.splitlines()
            if line and not line.startswith("#")
        }
        expected = {
            f"repro_dist_{name}_total": value
            for name, value in dist.items()
            if type(value) is int and value
        }
        assert expected["repro_dist_local_executions_total"] == 2
        assert samples == expected

    def test_unknown_target_exits_2(self, capsys):
        from repro.cli import main

        assert main(["dist-coordinator", "NoSuchBenchmark"]) == 2
        assert "neither a file nor a benchmark" in capsys.readouterr().err
