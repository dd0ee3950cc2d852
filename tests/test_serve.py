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
import sys
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
    ProgramMemo,
    ProgramSpec,
    ProtocolError,
    Request,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
    SimCacheStore,
    context_key,
    execute,
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


#: Simulator hints that change REQUEST's answer (its three tasks).
HINTS = {
    task: "per_object"
    for task in ("mergeIntermediateResult", "processText", "startup")
}


def offline_result(**overrides):
    params = dict(REQUEST, **overrides)
    result, _telemetry = execute(Request.parse("synthesize", params))
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

    def test_header_without_newline_is_truncated(self, tmp_path):
        path = str(tmp_path / "record.bin")
        write_record(path, self.FMT, b"payload")
        with open(path, "rb") as handle:
            header_line = handle.readline().rstrip(b"\n")
        with open(path, "wb") as handle:
            handle.write(header_line)
        with pytest.raises(StorageError, match="is truncated") as excinfo:
            read_record(path, self.FMT)
        assert excinfo.value.code == "not_record"

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
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-update, often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        stats = cache.cache_stats()
        # The snapshot is taken under the lock: the identity must hold
        # exactly, whatever interleaving happened.
        assert stats["lookups"] == stats["hits"] + stats["misses"]
        # No counter update was lost to a racing thread.
        assert stats["lookups"] == 8 * 200
        assert len(cache) <= 64
        assert stats["entries"] == len(cache)


# -- the persistent store ------------------------------------------------------


def _fill(store, context, n):
    cache = store.cache_for(context)
    for i in range(n):
        cache.put(f"fp-{i}", _sim_result(i))


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

    def test_insert_racing_a_flush_leaves_store_dirty(self, tmp_path):
        store = SimCacheStore(path=str(tmp_path / "simcache.bin"))
        _fill(store, "ctx", 2)
        cache = store.cache_for("ctx")
        state = cache.state

        def racing_state():
            snapshot = state()
            cache.put("fp-late", _sim_result(99))
            return snapshot

        cache.state = racing_state
        store.flush()
        assert store.dirty  # the late insert is not in the file
        del cache.state
        store.flush()
        assert not store.dirty

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
        assert (tmp_path / "simcache.bin.corrupt").read_bytes().endswith(
            b"second"
        )
        assert (tmp_path / "simcache.bin.corrupt.1").read_bytes().endswith(
            b"first"
        )

    def test_quarantine_bound_evicts_oldest(self, tmp_path):
        path = str(tmp_path / "simcache.bin")
        store = SimCacheStore(path=path, max_quarantine=2)
        for tag in (b"one", b"two", b"three"):
            with open(path, "wb") as handle:
                handle.write(b"bad cache " + tag)
            assert store.load().refused
        # Only the two newest survive; the oldest was deleted and counted.
        corrupt = tmp_path / "simcache.bin.corrupt"
        rotated = tmp_path / "simcache.bin.corrupt.1"
        assert corrupt.read_bytes().endswith(b"three")
        assert rotated.read_bytes().endswith(b"two")
        assert not os.path.exists(path + ".corrupt.2")
        assert store.quarantine_evictions == 1
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

    def test_v1_cache_file_refused_with_format_mismatch(self, tmp_path):
        # simcache-v1 held SimResults whose trace was a list of TraceEvent
        # objects; v2 holds the trace columns the critical path reads.
        path = str(tmp_path / "simcache.bin")
        store = SimCacheStore()
        _fill(store, "ctx", 2)
        write_pickle_record(
            path,
            "repro.serve/simcache-v1",
            {"contexts": {"ctx": store.cache_for("ctx").state()}},
        )
        with pytest.raises(StorageError) as excinfo:
            read_pickle_record(path, SIMCACHE_FORMAT, expected_type=dict)
        assert excinfo.value.code == "format_mismatch"
        report = SimCacheStore(path=path).load()
        assert report.refused and not report.loaded
        assert "repro.serve/simcache-v1" in report.error
        assert report.quarantined_to == path + ".corrupt"

    def test_v2_cache_file_refused_with_format_mismatch(self, tmp_path):
        # simcache-v2 held twelve-column traces; v3 holds eight.
        path = str(tmp_path / "simcache.bin")
        store = SimCacheStore()
        _fill(store, "ctx", 2)
        write_pickle_record(
            path,
            "repro.serve/simcache-v2",
            {"contexts": {"ctx": store.cache_for("ctx").state()}},
        )
        report = SimCacheStore(path=path).load()
        assert report.refused and not report.loaded
        assert "repro.serve/simcache-v2" in report.error
        assert report.quarantined_to == path + ".corrupt"
        with pytest.raises(StorageError) as excinfo:
            read_pickle_record(
                report.quarantined_to, SIMCACHE_FORMAT, expected_type=dict
            )
        assert excinfo.value.code == "format_mismatch"

    def test_foreign_record_refused(self, tmp_path):
        path = str(tmp_path / "simcache.bin")
        write_pickle_record(path, "repro.search/checkpoint-v1", {"x": 1})
        report = SimCacheStore(path=path).load()
        assert report.refused
        assert "repro.search/checkpoint-v1" in report.error

    def test_loaded_counters_do_not_pollute_registry(self, tmp_path):
        # The daemon exports sim_cache_totals() as its sim_cache_*
        # counters: totals restored from the file belong to earlier
        # daemons and stay out, while the restored caches keep them.
        path = str(tmp_path / "simcache.bin")
        store = SimCacheStore(path=path)
        _fill(store, "ctx", 5)
        cache = store.cache_for("ctx")
        for i in range(5):
            cache.get(f"fp-{i}")
        store.flush()

        warm = SimCacheStore(path=path)
        warm.load()
        assert warm.cache_for("ctx").hits == 5
        assert warm.sim_cache_totals() == {
            "hits": 0, "misses": 0, "evictions": 0,
        }
        warm.cache_for("ctx").get("fp-0")
        warm.cache_for("new").get("fp-0")
        assert warm.sim_cache_totals() == {
            "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_warm_load_applies_the_lru_bound(self, tmp_path):
        path = str(tmp_path / "simcache.bin")
        store = SimCacheStore(path=path)
        _fill(store, "ctx", 5)
        store.cache_for("ctx").get("fp-0")  # fp-0 becomes most recent
        store.flush()

        bounded = SimCacheStore(path=path, max_entries=2)
        assert bounded.load().entries == 2
        stats = bounded.stats()["per_context"]["ctx"]
        assert stats["entries"] == 2 and stats["max_entries"] == 2
        # The least recently used three were evicted, and counted.
        cache = bounded.cache_for("ctx")
        assert "fp-4" in cache and "fp-0" in cache
        assert stats["evictions"] == 3
        assert bounded.sim_cache_totals()["evictions"] == 3


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

    def test_malformed_trace_id_refused_before_admission(
        self, synthesize_gate
    ):
        # The daemon is full, so only a refusal that comes before
        # admission answers bad_request rather than overloaded.
        config = ServeConfig(max_concurrency=1, queue_limit=0)

        def occupant(handle):
            with handle.client() as client:
                served_synthesize(client)

        with ServerThread(config) as handle:
            background = threading.Thread(target=occupant, args=(handle,))
            background.start()
            try:
                with handle.client() as client:
                    self._wait_for_admitted(client)
                    with pytest.raises(ServeError) as excinfo:
                        client.call(
                            "compile", source=KEYWORD_SOURCE, trace_id=5
                        )
                    assert excinfo.value.code == "bad_request"
                    assert "trace_id" in str(excinfo.value)
                    counters = client.metrics()["counters"]
                    assert counters.get("serve_shed", 0) == 0
            finally:
                synthesize_gate.set()
            background.join()

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
                synth, _telemetry = served_synthesize(client)
                flushed = client.flush()
                assert flushed["flushed"] is True
                assert os.path.exists(path)
                # A memo answer and a cache-hit simulate insert nothing,
                # so they leave nothing for the write-behind loop.
                store = handle.server.store
                flushes = store.flushes
                _result, repeat = served_synthesize(client)
                hit = client.simulate(
                    KEYWORD_SOURCE,
                    cores=CORES,
                    args=ARGS,
                    mapping=synth["layout"],
                    mesh_width=synth["mesh_width"],
                )
                assert repeat["memo"] is True
                assert hit["telemetry"]["evaluations"] == 0
                assert not store.dirty
                assert store.flushes == flushes

    def test_workers_serve_identically(self):
        with ServerThread(ServeConfig(workers=2)) as handle:
            with handle.client() as client:
                result, _telemetry = served_synthesize(client)
        assert canonical(result) == canonical(offline_result())


class TestAnswerMemo:
    """A daemon answers a repeated synthesize request from memory: the
    answer is a function of the canonical request, so the repeat gets
    the first answer's bytes without compiling, profiling or searching."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """Counts the searches the daemon starts."""
        from repro.serve import service

        calls = []
        search = service.synthesize_layout

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(service, "synthesize_layout", counted)
        return calls

    def test_repeat_runs_the_search_once(self, searches):
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                first, cold = served_synthesize(client)
                second, warm = served_synthesize(client)
                metrics = client.metrics()
        assert len(searches) == 1
        assert canonical(second) == canonical(first)
        assert canonical(second) == canonical(offline_result())
        assert cold["evaluations"] > 0 and "memo" not in cold
        assert warm["memo"] is True
        assert warm["evaluations"] == 0 and warm["cache_hits"] == 0
        assert metrics["memo"]["answers"] == 1
        assert metrics["memo"]["answer_hits"] == 1

    def test_callers_cannot_mutate_a_kept_answer(self):
        memo = ProgramMemo()
        request = Request.parse("synthesize", dict(REQUEST))
        first, _telemetry = execute(request, memo=memo)
        expected = canonical(first)
        first["history"].append(0)
        second, telemetry = execute(request, memo=memo)
        assert telemetry["memo"] is True
        assert canonical(second) == expected
        second["layout"].clear()
        third, _telemetry = execute(request, memo=memo)
        assert canonical(third) == expected

    def test_every_canonical_field_splits_the_memo(self, searches):
        variants = [
            dict(seed=8),
            dict(cores=CORES + 1),
            dict(hints=HINTS),
            dict(max_evaluations=19),
            dict(args=["7"]),
        ]
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                served_synthesize(client)
                for overrides in variants:
                    _result, telemetry = served_synthesize(
                        client, **overrides
                    )
                    assert "memo" not in telemetry, overrides
                _result, telemetry = served_synthesize(
                    client, trace_id="another-trace"
                )
                assert telemetry["memo"] is True
        assert len(searches) == 1 + len(variants)

    def test_program_errors_are_not_kept(self):
        broken = dict(source="task nope(")
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                for _ in range(2):
                    with pytest.raises(ServeError) as excinfo:
                        served_synthesize(client, **broken)
                    assert excinfo.value.code == "program_error"
                memo = client.metrics()["memo"]
        assert memo["answers"] == 0 and memo["answer_hits"] == 0
        assert memo["answer_misses"] == 2

    def test_deadline_cancelled_run_is_not_kept(self, monkeypatch):
        from dataclasses import replace

        from repro.serve import service

        gate = threading.Event()
        search = service.synthesize_layout
        calls = []

        def held(*args, options, **kwargs):
            # Held past its deadline, then run to the end without polling
            # the cancellation: a finished answer nobody waited for.
            calls.append(args)
            gate.wait(timeout=60)
            options = replace(options, cancel_check=None)
            return search(*args, options=options, **kwargs)

        monkeypatch.setattr(service, "synthesize_layout", held)
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                try:
                    with pytest.raises(ServeError) as excinfo:
                        served_synthesize(client, deadline_ms=100)
                    assert excinfo.value.code == "deadline_exceeded"
                finally:
                    gate.set()
                # The held run finishes after its caller got the error.
                deadline = time.monotonic() + 20.0
                while client.metrics()["admitted"] > 0:
                    assert time.monotonic() < deadline, "run never ended"
                    time.sleep(0.005)
                result, telemetry = served_synthesize(client)
        assert len(calls) == 2
        assert "memo" not in telemetry
        assert canonical(result) == canonical(offline_result())

    def test_bound_evicts_the_least_recently_used(self, monkeypatch, searches):
        from repro.serve import service

        monkeypatch.setattr(service, "MEMO_ANSWERS", 2)
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:

                def from_memo(seed):
                    _result, telemetry = served_synthesize(client, seed=seed)
                    return telemetry.get("memo", False)

                assert [from_memo(seed) for seed in (1, 2, 1, 3)] == [
                    False, False, True, False
                ]
                # Seed 2 was the least recently used when seed 3 arrived.
                assert from_memo(1) is True
                assert from_memo(2) is False
                assert client.metrics()["memo"]["answers"] == 2
        assert len(searches) == 4


class TestHintedRequests:
    """A simulation depends on the request's hints, so the shared cache
    keys them too: a hinted request is never answered with a result
    simulated without its hints."""

    def test_tracking_simulate_with_and_without_hints(self):
        from repro.bench.suite import get_spec, load_source

        spec = get_spec("Tracking")
        base = dict(
            source=load_source("Tracking"),
            args=list(spec.args),
            optimize=False,
            cores=8,
        )
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                tasks = client.compile(base["source"], optimize=False)["tasks"]
                base["layout"] = {
                    task: [core] for core, task in enumerate(sorted(tasks))
                }
                plain = client.call("simulate", **base)["result"]
                hinted = client.call(
                    "simulate",
                    hints={task: "per_object" for task in tasks},
                    **base,
                )["result"]
        assert plain["cycles"] == 1206148
        assert hinted["cycles"] == 1009806

    def test_hinted_synthesize_after_unhinted_equals_offline(self):
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                plain, _telemetry = served_synthesize(client)
                hinted, _telemetry = served_synthesize(client, hints=HINTS)
        assert canonical(hinted) == canonical(offline_result(hints=HINTS))
        assert hinted["estimated_cycles"] != plain["estimated_cycles"]


class TestStoreNoticesInserts:
    """The store goes dirty on its caches' inserts, whichever request
    made them, and never without a file to write."""

    def test_deadline_cancelled_inserts_are_flushed(
        self, monkeypatch, tmp_path
    ):
        from dataclasses import replace

        from repro.serve import service

        gate = threading.Event()
        search = service.synthesize_layout

        def held(*args, options, **kwargs):
            # Held past its deadline, then run to the end: its inserts
            # land after its caller was answered with an error.
            gate.wait(timeout=60)
            options = replace(options, cancel_check=None)
            return search(*args, options=options, **kwargs)

        monkeypatch.setattr(service, "synthesize_layout", held)
        path = str(tmp_path / "simcache.bin")
        config = ServeConfig(cache_path=path, flush_interval=0.05)
        with ServerThread(config) as handle:
            store = handle.server.store
            with handle.client() as client:
                try:
                    with pytest.raises(ServeError) as excinfo:
                        served_synthesize(client, deadline_ms=100)
                    assert excinfo.value.code == "deadline_exceeded"
                finally:
                    gate.set()
                deadline = time.monotonic() + 20.0
                while client.metrics()["admitted"] > 0:
                    assert time.monotonic() < deadline, "run never ended"
                    time.sleep(0.005)
                deadline = time.monotonic() + 10.0
                while store.dirty or store.flushes == 0:
                    assert time.monotonic() < deadline, "never flushed"
                    time.sleep(0.01)
                entries = store.stats()["entries"]
        assert entries > 0
        report = SimCacheStore(path=path).load()
        assert report.loaded and report.entries == entries

    def test_daemon_without_cache_counts_no_flushes(self):
        with ServerThread(ServeConfig(flush_interval=0.05)) as handle:
            store = handle.server.store
            with handle.client() as client:
                _result, telemetry = served_synthesize(client)
                assert telemetry["evaluations"] > 0
                time.sleep(0.6)
                counters = client.metrics()["counters"]
            assert not store.dirty
        assert counters.get("serve_flushes", 0) == 0
        assert store.flushes == 0


class TestSinglePath:
    """A heavy request is parsed once, into one value whose key and
    source digest every later stage reuses."""

    LAYOUT = {task: [0] for task in HINTS}

    @pytest.fixture
    def source_work(self, monkeypatch):
        """Counts program-spec parses and sha256 calls over the source."""
        import hashlib

        from repro.serve import service

        counts = {"parses": 0, "hashes": 0}
        source = KEYWORD_SOURCE.encode("utf-8")
        sha256 = hashlib.sha256
        parse = service.ProgramSpec.parse

        def hashed(data=b"", **kwargs):
            if data == source:
                counts["hashes"] += 1
            return sha256(data, **kwargs)

        def parsed(params):
            counts["parses"] += 1
            return parse(params)

        monkeypatch.setattr(hashlib, "sha256", hashed)
        monkeypatch.setattr(service.ProgramSpec, "parse", staticmethod(parsed))
        return counts

    def test_each_op_parses_and_hashes_its_source_once(self, source_work):
        program = dict(source=KEYWORD_SOURCE, args=ARGS, optimize=True)
        calls = [
            ("compile", program),
            ("profile", program),
            ("synthesize", REQUEST),
            ("synthesize", REQUEST),  # the repeat, answered from memory
            ("simulate", dict(program, cores=CORES, layout=self.LAYOUT)),
        ]
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                for index, (op, params) in enumerate(calls):
                    source_work.update(parses=0, hashes=0)
                    client.call(op, **params)
                    assert source_work == {"parses": 1, "hashes": 1}, (
                        index,
                        op,
                    )

    def test_simulate_refuses_non_string_hint_policy(self):
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                with pytest.raises(ServeError) as excinfo:
                    client.call(
                        "simulate",
                        source=KEYWORD_SOURCE,
                        args=ARGS,
                        cores=CORES,
                        layout=self.LAYOUT,
                        hints={"processText": 3},
                    )
        assert excinfo.value.code == "bad_request"
        assert "'hints' must map task names to policies" in str(
            excinfo.value
        )

    def test_simulate_refuses_unknown_hint_policy(self):
        # The simulator would raise ValueError on it; the daemon must
        # answer bad_request, not internal.
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                with pytest.raises(ServeError) as excinfo:
                    client.call(
                        "simulate",
                        source=KEYWORD_SOURCE,
                        args=ARGS,
                        cores=CORES,
                        layout=self.LAYOUT,
                        hints={"processText": "per-object"},
                    )
        assert excinfo.value.code == "bad_request"
        assert "unknown hint policy 'per-object'" in str(excinfo.value)

    def test_context_and_keys_are_unchanged(self):
        from repro.serve import SynthesizeSpec

        for params in (
            dict(source=KEYWORD_SOURCE),
            dict(source=KEYWORD_SOURCE, args=ARGS, optimize=True),
        ):
            spec = ProgramSpec.parse(params)
            assert spec.context() == context_key(
                params["source"],
                params.get("args", []),
                params.get("optimize", False),
            )
        # Pinned: the names a cache file written by an earlier daemon
        # loads under, and the coalescing and memo keys.
        assert context_key(KEYWORD_SOURCE, ARGS, True) == (
            "11d64c8dd87374b63712e2856224bffd6947a659915adf09efb0ebe733a9e5da"
        )
        assert Request.parse("synthesize", REQUEST).key == (
            "167f0aef9fdd8449439585078ae840df6218299035faeabb9fdd08c53623271c"
        )
        assert Request.parse("compile", REQUEST).key == (
            "a61b3111483d7455e4f84f8109c2bfa92de7405afd42e29508dee320279f4e88"
        )
        assert Request.parse("synthesize", REQUEST).key == request_key(
            "synthesize", SynthesizeSpec.parse(REQUEST).canonical()
        )


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


# -- the observability exports -------------------------------------------------


class TestObservabilityEndpoints:
    """The daemon's exports: the ``metrics`` op with its wall-clock
    profile, and request traces."""

    def test_metrics_lints_and_carries_serve_series(self, tmp_path):
        from repro.obs.artifacts import validate_artifact
        from repro.obs.metrics import SERVE_SCHEMA

        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                served_synthesize(client)
                doc = client.metrics()
        assert doc["counters"]["serve_requests[synthesize]"] == 1
        assert doc["uptime_seconds"] >= 0
        path = tmp_path / "serve-metrics.json"
        path.write_text(json.dumps(doc))
        verdict = validate_artifact(str(path))
        assert verdict["schema"] == SERVE_SCHEMA
        assert verdict["summary"]["profile"]["phases"] >= 1

    def test_profilez_is_a_valid_profile_snapshot(self, tmp_path):
        """Profiling defaults on, so every ``metrics`` answer carries
        the daemon's profile, a document of its own."""
        from repro.obs import prof
        from repro.obs.artifacts import validate_artifact

        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                served_synthesize(client)
                profile = client.metrics()["profile"]
        assert profile["schema"] == prof.PROFILE_SCHEMA
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(profile))
        assert validate_artifact(str(path))["schema"] == prof.PROFILE_SCHEMA
        names = {node["name"] for node in profile["phases"]}
        assert "serve.synthesize" in names

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
        # Same request, different trace_id: still answered from memory.
        assert second["evaluations"] == 0
        assert second["memo"] is True
        assert second["trace"]["trace_id"] != first["trace"]["trace_id"]
        names = {span["name"] for span in second["trace"]["spans"]}
        assert "serve.synthesize" in names
