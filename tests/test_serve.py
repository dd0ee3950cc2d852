"""The synthesis service and its persistent, shared SimCache.

The load-bearing contract is **serving transparency**: a served
synthesize result is bit-identical to the same request run through the
offline pipeline — warm cache, cold cache, concurrent clients, daemon
restarts. The cache and the daemon may only change *when* an answer
arrives, never *which* answer arrives. Around that sit the operational
contracts: atomic persistence that survives restarts and refuses damaged
files, admission control that load-sheds instead of queueing unboundedly,
and coalescing that answers identical in-flight requests from one
execution.
"""

import json
import os
import threading
import time

import pytest

from conftest import KEYWORD_SOURCE

from repro.search import SimCache, StorageError, read_record, write_record
from repro.search.storage import (
    payload_digest,
    read_pickle_record,
    write_pickle_record,
)
from repro.serve import (
    SIMCACHE_FORMAT,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
    SimCacheStore,
    context_key,
    execute_synthesize,
    request_key,
)
from repro.serve.protocol import decode, encode

ARGS = ["6"]
CORES = 4

#: One small synthesize request, shared across tests so the persistent
#: cache tests exercise real cross-restart reuse.
REQUEST = dict(
    source=KEYWORD_SOURCE,
    args=ARGS,
    optimize=True,
    cores=CORES,
    seed=7,
    max_iterations=3,
    max_evaluations=20,
)


def offline_result(**overrides):
    params = dict(REQUEST, **overrides)
    result, _telemetry = execute_synthesize(params)
    return result


def canonical(result):
    return json.dumps(result, sort_keys=True)


def served_synthesize(client, **overrides):
    params = dict(REQUEST, **overrides)
    response = client.call("synthesize", **params)
    return response["result"], response.get("telemetry", {})


# -- the storage module --------------------------------------------------------


class TestStorage:
    FMT = "repro.test/record-v1"

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "record.bin")
        payload = b"some bytes"
        header = write_record(path, self.FMT, payload, extra_header={"n": 3})
        assert header["format"] == self.FMT
        assert header["n"] == 3
        assert header["digest"] == payload_digest(payload)
        got_header, got_payload = read_record(path, self.FMT)
        assert got_payload == payload
        assert got_header == header

    def test_pickle_round_trip(self, tmp_path):
        path = str(tmp_path / "record.bin")
        obj = {"contexts": {"a": [1, 2, 3]}}
        write_pickle_record(path, self.FMT, obj)
        _header, got = read_pickle_record(path, self.FMT, expected_type=dict)
        assert got == obj

    def test_tampered_payload_refused(self, tmp_path):
        path = str(tmp_path / "record.bin")
        write_record(path, self.FMT, b"payload")
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"X")
        with pytest.raises(StorageError, match="digest mismatch"):
            read_record(path, self.FMT)

    def test_truncated_payload_refused(self, tmp_path):
        path = str(tmp_path / "record.bin")
        write_record(path, self.FMT, b"a longer payload")
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 4)
        with pytest.raises(StorageError, match="digest mismatch"):
            read_record(path, self.FMT)

    def test_foreign_format_refused(self, tmp_path):
        path = str(tmp_path / "record.bin")
        write_record(path, "repro.test/other-v1", b"payload")
        with pytest.raises(StorageError, match="repro.test/other-v1"):
            read_record(path, self.FMT)

    def test_garbage_refused(self, tmp_path):
        path = str(tmp_path / "record.bin")
        with open(path, "wb") as handle:
            handle.write(b"\x00\x01not json at all\n rest")
        with pytest.raises(StorageError, match="is not a record"):
            read_record(path, self.FMT)

    def test_wrong_type_refused(self, tmp_path):
        path = str(tmp_path / "record.bin")
        write_pickle_record(path, self.FMT, [1, 2, 3])
        with pytest.raises(StorageError, match="does not contain a dict"):
            read_pickle_record(
                path, self.FMT, expected_type=dict, long_kind="test record"
            )


# -- the thread-safe SimCache --------------------------------------------------


def _sim_result(cycles):
    from repro.schedule.simulator import SimResult

    return SimResult(
        total_cycles=cycles, finished=True, trace=[], core_busy={},
        invocations={}, utilization=0.5,
    )


class TestConcurrentSimCache:
    def test_concurrent_mutation_stays_consistent(self):
        cache = SimCache(max_entries=64)
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    key = f"fp-{(base * 7 + i) % 100}"
                    if cache.get(key) is None:
                        cache.put(key, _sim_result(i))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.cache_stats()
        # The snapshot is taken under the lock: the identity must hold
        # exactly, whatever interleaving happened.
        assert stats["lookups"] == stats["hits"] + stats["misses"]
        assert len(cache) <= 64
        assert stats["entries"] == len(cache)


# -- the persistent store ------------------------------------------------------


def _fill(store, context, n):
    cache = store.cache_for(context)
    for i in range(n):
        cache.put(f"fp-{i}", _sim_result(i))
    store.mark_dirty()


class TestSimCacheStore:
    def test_flush_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "simcache.bin")
        store = SimCacheStore(path=path)
        _fill(store, "ctx-a", 5)
        _fill(store, "ctx-b", 3)
        assert store.dirty
        header = store.flush()
        assert header["format"] == SIMCACHE_FORMAT
        assert header["contexts"] == 2
        assert header["entries"] == 8
        assert not store.dirty

        fresh = SimCacheStore(path=path)
        report = fresh.load()
        assert report.loaded and not report.refused
        assert report.contexts == 2 and report.entries == 8
        assert fresh.cache_for("ctx-a").get("fp-2") is not None

    def test_missing_file_is_cold(self, tmp_path):
        store = SimCacheStore(path=str(tmp_path / "absent.bin"))
        report = store.load()
        assert not report.loaded and not report.refused
        assert "cold cache" in report.describe()

    def test_no_path_disables_persistence(self):
        store = SimCacheStore()
        assert store.load().path is None
        assert store.flush() is None

    def test_corrupt_file_refused_and_quarantined(self, tmp_path):
        path = str(tmp_path / "simcache.bin")
        with open(path, "wb") as handle:
            handle.write(b"definitely not a cache record")
        store = SimCacheStore(path=path)
        report = store.load()
        assert report.refused and not report.loaded
        assert "is not a persistent simulation cache" in report.error
        assert report.quarantined_to == path + ".corrupt"
        assert os.path.exists(report.quarantined_to)
        assert not os.path.exists(path)
        # The store still works as a fresh cache.
        _fill(store, "ctx", 2)
        assert store.flush() is not None
        assert SimCacheStore(path=path).load().loaded

    def test_quarantine_rotates_newest_first(self, tmp_path):
        path = str(tmp_path / "simcache.bin")

        def refuse(tag):
            with open(path, "wb") as handle:
                handle.write(b"bad cache " + tag)
            report = SimCacheStore(path=path).load()
            assert report.refused
            return report

        refuse(b"first")
        refuse(b"second")
        # Newest refusal sits at .corrupt, the earlier one rotated back.
        assert open(path + ".corrupt", "rb").read().endswith(b"second")
        assert open(path + ".corrupt.1", "rb").read().endswith(b"first")

    def test_quarantine_bound_evicts_oldest(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        path = str(tmp_path / "simcache.bin")
        registry = MetricsRegistry()
        store = SimCacheStore(path=path, registry=registry, max_quarantine=2)
        for tag in (b"one", b"two", b"three"):
            with open(path, "wb") as handle:
                handle.write(b"bad cache " + tag)
            assert store.load().refused
        # Only the two newest survive; the oldest was deleted and counted.
        assert open(path + ".corrupt", "rb").read().endswith(b"three")
        assert open(path + ".corrupt.1", "rb").read().endswith(b"two")
        assert not os.path.exists(path + ".corrupt.2")
        assert store.quarantine_evictions == 1
        assert registry.counter("serve_quarantine_evictions").value == 1
        stats = store.stats()
        assert stats["max_quarantine"] == 2
        assert stats["quarantine_evictions"] == 1

    def test_truncated_file_refused(self, tmp_path):
        path = str(tmp_path / "simcache.bin")
        store = SimCacheStore(path=path)
        _fill(store, "ctx", 4)
        store.flush()
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        report = SimCacheStore(path=path).load()
        assert report.refused
        assert "digest mismatch" in report.error

    def test_foreign_record_refused(self, tmp_path):
        path = str(tmp_path / "simcache.bin")
        write_pickle_record(path, "repro.search/checkpoint-v1", {"x": 1})
        report = SimCacheStore(path=path).load()
        assert report.refused
        assert "repro.search/checkpoint-v1" in report.error

    def test_loaded_counters_do_not_pollute_registry(self, tmp_path):
        from repro.obs import MetricsRegistry

        path = str(tmp_path / "simcache.bin")
        store = SimCacheStore(path=path)
        _fill(store, "ctx", 5)
        cache = store.cache_for("ctx")
        for i in range(5):
            cache.get(f"fp-{i}")
        store.flush()

        registry = MetricsRegistry()
        warm = SimCacheStore(path=path, registry=registry)
        warm.load()
        assert registry.counter("sim_cache_hits").value == 0


# -- protocol framing ----------------------------------------------------------


class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "ping", "id": 4, "nested": {"b": 1, "a": [2, 3]}}
        assert decode(encode(message)) == message

    def test_encode_is_byte_stable(self):
        a = encode({"b": 1, "a": 2})
        b = encode({"a": 2, "b": 1})
        assert a == b

    def test_garbage_line_refused(self):
        with pytest.raises(ProtocolError, match="not a JSON line"):
            decode(b"{nope\n")

    def test_non_object_refused(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode(b"[1, 2]\n")

    def test_request_key_ignores_param_order(self):
        assert request_key("synthesize", {"a": 1, "b": 2}) == request_key(
            "synthesize", {"b": 2, "a": 1}
        )

    def test_context_key_separates_programs(self):
        base = context_key(KEYWORD_SOURCE, ["6"], True)
        assert context_key(KEYWORD_SOURCE + " ", ["6"], True) != base
        assert context_key(KEYWORD_SOURCE, ["7"], True) != base
        assert context_key(KEYWORD_SOURCE, ["6"], False) != base


# -- the daemon ----------------------------------------------------------------


class TestServing:
    def test_served_equals_offline(self, tmp_path):
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                result, telemetry = served_synthesize(client)
        assert canonical(result) == canonical(offline_result())
        assert telemetry["evaluations"] > 0

    def test_restart_round_trip_warm_and_identical(self, tmp_path):
        path = str(tmp_path / "simcache.bin")
        with ServerThread(ServeConfig(cache_path=path)) as handle:
            with handle.client() as client:
                cold_result, cold_telemetry = served_synthesize(client)
        # Shutdown flushed the store; the file exists and is well formed.
        header, _payload = read_pickle_record(path, SIMCACHE_FORMAT)
        assert header["entries"] > 0

        with ServerThread(ServeConfig(cache_path=path)) as handle:
            with handle.client() as client:
                assert "warm cache" in client.ping()["cache"]
                warm_result, warm_telemetry = served_synthesize(client)
        # Bit-identical across the restart, answered purely from cache.
        assert canonical(warm_result) == canonical(cold_result)
        assert warm_telemetry["evaluations"] == 0
        assert warm_telemetry["cache_hits"] > 0
        assert cold_telemetry["evaluations"] > 0
        # And both match the offline pipeline.
        assert canonical(cold_result) == canonical(offline_result())

    def test_corrupt_cache_file_on_startup(self, tmp_path):
        path = str(tmp_path / "simcache.bin")
        with open(path, "wb") as handle:
            handle.write(b"garbage, not a simcache record")
        with ServerThread(ServeConfig(cache_path=path)) as handle:
            assert handle.server.load_report.refused
            with handle.client() as client:
                ping = client.ping()
                assert "refused existing cache file" in ping["cache"]
                assert "is not a persistent simulation cache" in ping["cache"]
                # The daemon still serves, building a fresh cache.
                result, _telemetry = served_synthesize(client)
        assert canonical(result) == canonical(offline_result())
        assert os.path.exists(path + ".corrupt")
        # The fresh cache was flushed on shutdown and loads cleanly.
        assert SimCacheStore(path=path).load().loaded

    def test_concurrent_clients_deterministic(self):
        seeds = [1, 2, 3, 4]
        outcomes = {}
        errors = []

        def one_client(handle, seed):
            try:
                with handle.client() as client:
                    result, _telemetry = served_synthesize(client, seed=seed)
                outcomes[seed] = canonical(result)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ServerThread(ServeConfig(max_concurrency=2)) as handle:
            threads = [
                threading.Thread(target=one_client, args=(handle, seed))
                for seed in seeds
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        for seed in seeds:
            assert outcomes[seed] == canonical(offline_result(seed=seed))

    def _wait_until(self, client, reached, what, timeout=20.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if reached(client.metrics()):
                return
            time.sleep(0.005)
        raise AssertionError(f"daemon never reached {what}")

    def _wait_for_admitted(self, client):
        self._wait_until(
            client, lambda m: m["admitted"] >= 1, "1 admitted request"
        )

    def test_admission_control_sheds_excess(self, synthesize_gate):
        # Capacity 1: one held request occupies the daemon; a *distinct*
        # second request must be shed, not queued.
        config = ServeConfig(max_concurrency=1, queue_limit=0)
        slow = dict(seed=0, max_iterations=50, max_evaluations=2000)
        def occupant(handle):
            with handle.client() as client:
                served_synthesize(client, **slow)

        with ServerThread(config) as handle:
            background = threading.Thread(target=occupant, args=(handle,))
            background.start()
            try:
                with handle.client() as client:
                    self._wait_for_admitted(client)
                    with pytest.raises(ServeError) as excinfo:
                        served_synthesize(client, seed=99)
                    assert excinfo.value.code == "overloaded"
                    shed = client.metrics()["counters"]["serve_shed"]
                    assert shed == 1
            finally:
                synthesize_gate.set()
            background.join()
        # The shed client was told to retry; the slow request finished.

    def test_identical_inflight_requests_coalesce(self, synthesize_gate):
        config = ServeConfig(max_concurrency=1, queue_limit=0)
        slow = dict(seed=0, max_iterations=50, max_evaluations=2000)
        first = {}
        second = {}

        def leader(handle):
            with handle.client() as client:
                result, telemetry = served_synthesize(client, **slow)
            first["result"] = result
            first["telemetry"] = telemetry

        def follower(handle):
            with handle.client() as client:
                second["response"] = served_synthesize(client, **slow)

        with ServerThread(config) as handle:
            background = threading.Thread(target=leader, args=(handle,))
            background.start()
            try:
                with handle.client() as client:
                    self._wait_for_admitted(client)
                    # Identical request while the first is held in flight:
                    # coalesces onto the running execution even though the
                    # daemon is at capacity (a distinct request would be
                    # shed — proven by test_admission_control_sheds_excess).
                    joiner = threading.Thread(target=follower, args=(handle,))
                    joiner.start()
                    self._wait_until(
                        client,
                        lambda m: m["counters"].get("serve_coalesced", 0) >= 1,
                        "1 coalesced request",
                    )
                    synthesize_gate.set()
                    joiner.join(timeout=60)
                    assert not joiner.is_alive()
                    result, telemetry = second["response"]
                    assert telemetry.get("coalesced") is True
                    metrics = client.metrics()
                    assert metrics["counters"]["serve_coalesced"] == 1
                    assert metrics["counters"]["serve_shed"] == 0
            finally:
                synthesize_gate.set()
            background.join()
        assert canonical(result) == canonical(first["result"])

    def test_compile_profile_simulate_ops(self):
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                compiled = client.compile(KEYWORD_SOURCE)
                assert "processText" in compiled["tasks"]
                profile = client.profile(KEYWORD_SOURCE, args=ARGS)
                assert profile["run_cycles"] > 0
                synth, _telemetry = served_synthesize(client)
                response = client.simulate(
                    KEYWORD_SOURCE,
                    cores=CORES,
                    args=ARGS,
                    mapping=synth["layout"],
                    mesh_width=synth["mesh_width"],
                )
                sim = response["result"]
                assert sim["cycles"] == synth["estimated_cycles"]
                # The layout was scored during the search: pure cache hit.
                assert response["telemetry"]["cache_hits"] == 1

    def test_unknown_op_and_bad_params(self):
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                with pytest.raises(ServeError) as excinfo:
                    client.call("transmogrify")
                assert excinfo.value.code == "unknown_op"
                with pytest.raises(ServeError) as excinfo:
                    client.call("synthesize", source=KEYWORD_SOURCE)
                assert excinfo.value.code == "bad_request"
                with pytest.raises(ServeError) as excinfo:
                    client.call(
                        "synthesize", **dict(REQUEST, source="task nope(")
                    )
                assert excinfo.value.code == "program_error"
                # The connection survives error responses.
                assert client.ping()["pong"] is True

    def test_metrics_op_shape(self):
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                served_synthesize(client)
                metrics = client.metrics()
        assert metrics["schema"] == "repro.obs/serve-metrics-v1"
        assert metrics["counters"]["serve_requests[synthesize]"] == 1
        assert metrics["histograms"]["serve_latency[synthesize]"]["count"] == 1
        assert metrics["store"]["contexts"] == 1
        assert metrics["memo"]["compile_misses"] == 1
        assert 0.0 <= metrics["cache_hit_rate"] <= 1.0

    def test_explicit_flush_op(self, tmp_path):
        path = str(tmp_path / "simcache.bin")
        with ServerThread(
            ServeConfig(cache_path=path, flush_interval=3600.0)
        ) as handle:
            with handle.client() as client:
                served_synthesize(client)
                flushed = client.flush()
                assert flushed["flushed"] is True
                assert os.path.exists(path)

    def test_workers_serve_identically(self):
        with ServerThread(ServeConfig(workers=2)) as handle:
            with handle.client() as client:
                result, _telemetry = served_synthesize(client)
        assert canonical(result) == canonical(offline_result())


# -- the CLI -------------------------------------------------------------------


class TestRequestCli:
    def _program_file(self, tmp_path):
        path = tmp_path / "keyword.bam"
        path.write_text(KEYWORD_SOURCE)
        return str(path)

    def test_offline_request_matches_served(self, tmp_path, capsys):
        from repro.cli import main

        program = self._program_file(tmp_path)
        argv = [
            "request", "synthesize", program, *ARGS,
            "--cores", str(CORES), "--seed", "7",
            "--max-iterations", "3", "--max-evaluations", "20",
            "--offline",
        ]
        assert main(argv) == 0
        offline_stdout = capsys.readouterr().out

        with ServerThread(ServeConfig()) as handle:
            assert main(argv[:-1] + ["--port", str(handle.port)]) == 0
        served_stdout = capsys.readouterr().out
        # The transparency contract, at the CLI layer: byte-equal stdout.
        assert served_stdout == offline_stdout
        assert json.loads(offline_stdout)["estimated_cycles"] > 0

    def test_request_without_port_or_offline_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["request", "ping"]) == 2
        assert "--port" in capsys.readouterr().err


# -- the observability endpoints -----------------------------------------------


class TestObservabilityEndpoints:
    """The HTTP sidecar: /metrics, /healthz, /profilez, and request traces."""

    @staticmethod
    def _fetch(handle, path):
        import urllib.request

        url = f"http://{handle.server.metrics_host}:{handle.metrics_port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.status, response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode("utf-8")

    def test_metrics_lints_and_carries_serve_series(self):
        from repro.obs.promexp import validate_prometheus_text

        with ServerThread(ServeConfig(metrics_port=0)) as handle:
            with handle.client() as client:
                served_synthesize(client)
            status, text = self._fetch(handle, "/metrics")
        assert status == 200
        summary = validate_prometheus_text(text)
        assert summary["families"] > 0
        assert "repro_serve_requests_total" in text
        assert "repro_serve_uptime_seconds" in text
        # Profiling defaults on, so the profiler series ride along.
        assert 'repro_profile_phase_seconds_total{kind="total",phase="serve.synthesize"}' in text

    def test_healthz_reports_ok(self):
        with ServerThread(ServeConfig(metrics_port=0)) as handle:
            status, body = self._fetch(handle, "/healthz")
        assert status == 200
        doc = json.loads(body)
        assert doc["ok"] is True
        assert doc["draining"] is False
        assert doc["uptime_seconds"] >= 0

    def test_profilez_is_a_valid_profile_snapshot(self, tmp_path):
        from repro.obs import prof
        from repro.obs.artifacts import validate_artifact

        with ServerThread(ServeConfig(metrics_port=0)) as handle:
            with handle.client() as client:
                served_synthesize(client)
            status, body = self._fetch(handle, "/profilez")
        assert status == 200
        doc = json.loads(body)
        assert doc["schema"] == prof.PROFILE_SCHEMA
        path = tmp_path / "profilez.json"
        path.write_text(body)
        assert validate_artifact(str(path))["schema"] == prof.PROFILE_SCHEMA
        names = {node["name"] for node in doc["phases"]}
        assert "serve.synthesize" in names

    def test_unknown_path_and_method(self):
        import socket

        with ServerThread(ServeConfig(metrics_port=0)) as handle:
            status, body = self._fetch(handle, "/nope")
            assert status == 404
            assert "/metrics" in body
            with socket.create_connection(
                (handle.server.metrics_host, handle.metrics_port), timeout=10
            ) as sock:
                sock.sendall(b"POST /metrics HTTP/1.1\r\n\r\n")
                reply = sock.recv(4096).decode("latin-1")
        assert "405" in reply.split("\r\n")[0]

    def test_traced_request_merges_into_one_chrome_trace(self):
        from repro.obs import prof
        from repro.obs.export import validate_chrome_trace

        with ServerThread(ServeConfig()) as handle:
            with handle.client(trace=True) as client:
                result, telemetry = served_synthesize(client)
        assert canonical(result) == canonical(offline_result())
        # The daemon echoed the trace context in its telemetry...
        trace = client.last_trace
        assert trace is not None
        server = trace["server"]
        assert server["trace_id"] == trace["trace_id"]
        assert server["span_id"]
        names = {span["name"] for span in server["spans"]}
        assert "serve.synthesize" in names
        assert "pipeline.synthesize" in names
        # ... and the merged document is one valid two-track trace.
        doc = prof.build_request_trace(
            trace["trace_id"], trace["client_span"], server["spans"]
        )
        summary = validate_chrome_trace(doc)
        assert summary["tracks"] == [0, 1]
        assert doc["otherData"]["trace_id"] == trace["trace_id"]
        assert summary["spans"] == len(server["spans"]) + 1

    def test_trace_id_does_not_split_the_cache(self):
        with ServerThread(ServeConfig()) as handle:
            with handle.client(trace=True) as client:
                _result, first = served_synthesize(client)
                _result, second = served_synthesize(client)
        assert first["evaluations"] > 0
        # Same request, different trace_id: still a pure cache hit.
        assert second["evaluations"] == 0
        assert second["cache_hits"] > 0
        assert second["trace"]["trace_id"] != first["trace"]["trace_id"]
