"""The serve-layer failure story: retries, deadlines, drain, chaos.

The contract under test extends serving transparency into failure space:
because served results are deterministic, a retry can only *recover* an
answer, never change it — so a client that survives injected connection
drops must return bytes identical to an undisturbed call (and to the
offline pipeline). Around that: per-request deadlines that actually
reclaim the worker thread, graceful drain that answers admitted work and
refuses new work with a typed error, idle-connection reclamation, honest
``degraded`` reporting when the cache cannot be persisted, and a seeded
network-chaos harness whose invariants are machine-checked.
"""

import json
import os
import random
import socket
import threading
import time

import pytest

from conftest import KEYWORD_SOURCE

from repro.search.storage import StorageError
from repro.serve import (
    MAX_LINE_BYTES,
    ChaosProxy,
    ClientRetryPolicy,
    NetChaosPlan,
    NetFault,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServeError,
    ServeUnavailable,
    ServerThread,
    execute_synthesize,
    run_net_chaos,
    wait_for_server,
)
from repro.serve.netchaos import PROXY_FAULT_KINDS
from repro.serve.protocol import decode, encode

ARGS = ["6"]
CORES = 4

#: Small but real synthesize request (mirrors tests/test_serve.py).
REQUEST = dict(
    source=KEYWORD_SOURCE,
    args=ARGS,
    optimize=True,
    cores=CORES,
    seed=7,
    max_iterations=3,
    max_evaluations=20,
)

#: A variant that takes seconds of wall clock (big input, so each
#: candidate simulation is expensive) — long enough to outlive short
#: deadlines and drain timeouts deterministically.
SLOW_REQUEST = dict(
    REQUEST,
    args=["300"],
    cores=8,
    max_iterations=100000,
    max_evaluations=1000000,
)


def canonical(result):
    return json.dumps(result, sort_keys=True)


def offline_result(**overrides):
    result, _telemetry = execute_synthesize(dict(REQUEST, **overrides))
    return result


def fast_policy(**overrides):
    defaults = dict(max_attempts=4, backoff_base=0.01, backoff_cap=0.05)
    defaults.update(overrides)
    return ClientRetryPolicy(**defaults)


# -- the retry policy ----------------------------------------------------------


class TestClientRetryPolicy:
    def test_validate_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ClientRetryPolicy(max_attempts=0).validate()
        with pytest.raises(ValueError, match="non-negative"):
            ClientRetryPolicy(backoff_base=-1).validate()
        with pytest.raises(ValueError, match="connect_timeout"):
            ClientRetryPolicy(connect_timeout=0).validate()

    def test_backoff_deterministic_and_capped(self):
        policy = ClientRetryPolicy(backoff_base=0.1, backoff_cap=0.8)
        series = [policy.backoff("synthesize", n) for n in range(1, 8)]
        assert series == [policy.backoff("synthesize", n) for n in range(1, 8)]
        # Jitter keeps each delay in [0.5, 1.0) of the exponential value.
        for failure, delay in enumerate(series, start=1):
            raw = min(0.8, 0.1 * 2 ** (failure - 1))
            assert raw * 0.5 <= delay < raw
        # Distinct ops get distinct jitter (sha256-keyed, not shared).
        assert policy.backoff("ping", 1) != policy.backoff("synthesize", 1)

    def test_jitter_matches_supervise_shape(self):
        from repro.search.retry import jitter

        # Same construction: sha256(f"{key}:{round}") first 4 bytes / 2^32,
        # so the client's string op keys and the pool's integer dispatch
        # ids jitter alike.
        assert jitter("7", 3) == jitter(7, 3)
        assert 0.0 <= jitter("synthesize", 1) < 1.0


# -- the retrying client -------------------------------------------------------


class TestRetryingClient:
    def test_connection_drops_are_bit_identical_to_clean_call(self, tmp_path):
        """The acceptance property: a client completing through injected
        connection drops returns the same bytes as a clean call (and as
        the offline pipeline)."""
        baseline = canonical(offline_result())
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as clean:
                clean_bytes = canonical(
                    clean.call("synthesize", **REQUEST)["result"]
                )
            assert clean_bytes == baseline
            for kind in ("reset", "truncate", "garbage"):
                proxy = ChaosProxy(handle.port)
                try:
                    proxy.arm(
                        NetChaosPlan(
                            faults=(NetFault(request=0, kind=kind),), seed=0
                        )
                    )
                    with ServeClient(
                        proxy.host,
                        proxy.port,
                        timeout=30.0,
                        retry_policy=fast_policy(),
                    ) as client:
                        response = client.call("synthesize", **REQUEST)
                        assert canonical(response["result"]) == baseline, kind
                        assert client.retries == 1
                        assert proxy.fired == [(0, kind)]
                finally:
                    proxy.close()

    def test_delay_past_timeout_recovers(self, tmp_path):
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as warm:
                warm.call("synthesize", **REQUEST)
            proxy = ChaosProxy(handle.port, delay_seconds=1.0)
            try:
                proxy.arm(
                    NetChaosPlan(
                        faults=(NetFault(request=0, kind="delay"),), seed=0
                    )
                )
                with ServeClient(
                    proxy.host,
                    proxy.port,
                    timeout=0.3,
                    retry_policy=fast_policy(),
                ) as client:
                    response = client.call("synthesize", **REQUEST)
                assert canonical(response["result"]) == canonical(
                    offline_result()
                )
            finally:
                proxy.close()

    def test_deterministic_failures_are_not_retried(self):
        with ServerThread(ServeConfig()) as handle:
            with handle.client(retry_policy=fast_policy()) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.call("synthesize", source="task oops {", cores=4)
                assert excinfo.value.code in ("bad_request", "program_error")
                assert client.retries == 0

    def test_exhausted_retries_raise_serve_unavailable(self):
        # A port nothing listens on: every connect attempt fails.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServeUnavailable) as excinfo:
            ServeClient(
                "127.0.0.1",
                port,
                retry_policy=fast_policy(max_attempts=2),
            )
        assert excinfo.value.last_error is not None

    def test_wait_for_server_raises_serve_unavailable(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServeUnavailable, match="no daemon answered"):
            wait_for_server("127.0.0.1", port, timeout=0.2, interval=0.05)

    def test_retry_after_hint_is_capped_and_used(self):
        policy = ClientRetryPolicy(retry_after_cap=0.0, backoff_base=0.0)
        error = ServeError("overloaded", "busy", retry_after_ms=60000)
        # The hint (60s) must be capped to retry_after_cap, not slept raw:
        # exercised end-to-end below; here just the attribute surface.
        assert error.retry_after_ms == 60000
        assert policy.retry_after_cap == 0.0


# -- deadlines -----------------------------------------------------------------


class TestRequestDeadlines:
    def test_server_deadline_answers_typed_error_and_reclaims_thread(self):
        config = ServeConfig(request_deadline=0.1)
        with ServerThread(config) as handle:
            with handle.client() as client:
                with pytest.raises(ServeError) as excinfo:
                    client.call("synthesize", **SLOW_REQUEST)
                assert excinfo.value.code == "deadline_exceeded"
                # Cooperative cancellation: the worker thread comes home
                # and the admission slot is released.
                for _ in range(400):
                    metrics = client.metrics()
                    if metrics["admitted"] == 0:
                        break
                    time.sleep(0.01)
                assert metrics["admitted"] == 0
                assert (
                    metrics["counters"]["serve_deadline_exceeded"] == 1
                )
                assert (
                    metrics["counters"]["serve_cancelled_reclaimed"] == 1
                )
                # The daemon still answers real work afterwards.
                response = client.call("synthesize", **REQUEST)
                assert canonical(response["result"]) == canonical(
                    offline_result()
                )

    def test_per_request_deadline_ms(self):
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                with pytest.raises(ServeError) as excinfo:
                    client.call(
                        "synthesize", deadline_ms=80, **SLOW_REQUEST
                    )
                assert excinfo.value.code == "deadline_exceeded"

    def test_invalid_deadline_ms_rejected(self):
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                for bad in (0, -5, "soon", True):
                    with pytest.raises(ServeError) as excinfo:
                        client.call("synthesize", deadline_ms=bad, **REQUEST)
                    assert excinfo.value.code == "bad_request"

    def test_deadline_exceeded_is_not_retried(self):
        with ServerThread(ServeConfig(request_deadline=0.1)) as handle:
            with handle.client(retry_policy=fast_policy()) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.call("synthesize", **SLOW_REQUEST)
                assert excinfo.value.code == "deadline_exceeded"
                assert client.retries == 0

    def test_generous_deadline_stays_bit_identical_to_offline(self):
        """Acceptance: fault-free runs with deadlines and retries enabled
        remain byte-identical to the offline pipeline."""
        config = ServeConfig(request_deadline=60.0)
        with ServerThread(config) as handle:
            with handle.client(retry_policy=fast_policy()) as client:
                response = client.call("synthesize", **REQUEST)
                assert client.retries == 0
                assert canonical(response["result"]) == canonical(
                    offline_result()
                )


# -- graceful drain ------------------------------------------------------------


class TestGracefulDrain:
    def _start_slow_call(self, handle, box):
        def body():
            try:
                with handle.client(timeout=60.0) as slow:
                    box["response"] = slow.call("synthesize", **SLOW_REQUEST)
            except (ServeError, ServeUnavailable, ConnectionError, OSError) as exc:
                box["error"] = exc

        thread = threading.Thread(target=body, daemon=True)
        thread.start()
        return thread

    def _wait_admitted(self, client, want=1, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if client.metrics()["admitted"] >= want:
                return
            time.sleep(0.01)
        raise AssertionError("request was never admitted")

    def test_drain_rejects_new_heavy_work_with_typed_error(self):
        config = ServeConfig(drain_timeout=0.3)
        with ServerThread(config) as handle:
            box = {}
            thread = self._start_slow_call(handle, box)
            with handle.client() as control:
                self._wait_admitted(control)
                shutdown = control.call("shutdown")["result"]
                assert shutdown["stopping"] is True
                assert shutdown["draining"] >= 1
                # New heavy work is refused with the typed drain error
                # and a retry hint for the successor daemon.
                with pytest.raises(ServeError) as excinfo:
                    control.call("synthesize", **REQUEST)
                assert excinfo.value.code == "draining"
                assert excinfo.value.retry_after_ms is not None
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            # The in-flight request outlived drain_timeout, so it was
            # cooperatively cancelled with the draining error — a typed
            # outcome, not a dropped connection or a hang.
            assert "error" in box
            assert isinstance(box["error"], ServeError)
            assert box["error"].code == "draining"

    def test_drain_answers_admitted_work_within_timeout(self, synthesize_gate):
        config = ServeConfig(drain_timeout=60.0)
        with ServerThread(config) as handle:
            box = {}
            moderate = dict(
                REQUEST, max_iterations=20, max_evaluations=2000
            )

            def body():
                with handle.client(timeout=60.0) as slow:
                    box["response"] = slow.call("synthesize", **moderate)

            thread = threading.Thread(target=body, daemon=True)
            thread.start()
            try:
                with handle.client() as control:
                    # The gate holds the request in flight until the
                    # drain has begun.
                    self._wait_admitted(control)
                    control.call("shutdown")
            finally:
                synthesize_gate.set()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            # Admitted before the drain began → answered, and correctly.
            result, _ = execute_synthesize(dict(moderate))
            assert canonical(box["response"]["result"]) == canonical(result)


# -- connection hygiene --------------------------------------------------------


class TestConnectionHygiene:
    def test_idle_connections_are_closed(self):
        config = ServeConfig(idle_timeout=0.2)
        with ServerThread(config) as handle:
            sock = socket.create_connection(
                (handle.host, handle.port), timeout=10.0
            )
            started = time.monotonic()
            assert sock.makefile("rb").readline() == b""
            assert time.monotonic() - started < 5.0
            sock.close()
            with handle.client() as client:
                counters = client.metrics()["counters"]
                assert counters["serve_idle_closed"] == 1

    def test_overlong_line_gets_typed_error_before_close(self):
        with ServerThread(ServeConfig()) as handle:
            sock = socket.create_connection(
                (handle.host, handle.port), timeout=30.0
            )
            sock.sendall(b"x" * (MAX_LINE_BYTES + 16) + b"\n")
            line = sock.makefile("rb").readline()
            response = decode(line)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert "exceeds" in response["error"]["message"]
            sock.close()
            with handle.client() as client:
                counters = client.metrics()["counters"]
                assert counters["serve_overlong_lines"] == 1
                assert counters["serve_errors"] >= 1


# -- degradation reporting -----------------------------------------------------


class TestDegradedReporting:
    def test_flush_failure_flips_degraded_until_success(self, tmp_path):
        config = ServeConfig(
            cache_path=str(tmp_path / "cache.bin"), flush_interval=3600.0
        )
        with ServerThread(config) as handle:
            with handle.client() as client:
                client.call("synthesize", **REQUEST)
                assert client.ping()["degraded"] is False
                handle.server.store.fail_flushes = 1
                with pytest.raises(ServeError) as excinfo:
                    client.flush()
                assert excinfo.value.code == "internal_error"
                assert client.ping()["degraded"] is True
                metrics = client.metrics()
                assert metrics["degraded"] is True
                assert "injected flush failure" in str(
                    metrics["last_flush_error"]["error"]
                )
                client.flush()
                assert client.ping()["degraded"] is False
                assert client.metrics()["last_flush_error"] is None

    def test_inject_op_is_gated(self, tmp_path):
        with ServerThread(ServeConfig()) as handle:
            with handle.client() as client:
                with pytest.raises(ServeError) as excinfo:
                    client.call("inject", fault="flush_fail")
                assert excinfo.value.code == "unknown_op"

    def test_inject_op_arms_store_fault_point(self, tmp_path):
        config = ServeConfig(
            cache_path=str(tmp_path / "cache.bin"),
            flush_interval=3600.0,
            allow_fault_injection=True,
        )
        with ServerThread(config) as handle:
            with handle.client() as client:
                armed = client.call("inject", fault="flush_fail", count=2)
                assert armed["result"] == {"armed": "flush_fail", "count": 2}
                assert handle.server.store.fail_flushes == 2
                with pytest.raises(ServeError):
                    client.call("inject", fault="meteor_strike")

    def test_store_fault_point_leaves_store_dirty(self, tmp_path):
        from repro.serve import SimCacheStore

        store = SimCacheStore(path=str(tmp_path / "cache.bin"))
        store.cache_for("ctx")
        store.mark_dirty()
        store.fail_flushes = 1
        with pytest.raises(StorageError, match="injected flush failure"):
            store.flush()
        assert store.dirty  # the failed write persisted nothing
        store.flush()
        assert not store.dirty


# -- cooperative cancellation seam ---------------------------------------------


class TestCancellationSeam:
    def test_cancel_check_stops_search_between_iterations(self):
        from repro.core import compile_program, profile_program, synthesize_layout
        from repro.core.options import SynthesisOptions
        from repro.schedule.anneal import SearchCancelled

        compiled = compile_program(KEYWORD_SOURCE, "<test>", optimize=True)
        profile = profile_program(compiled, ARGS)
        calls = []

        def cancel_after_two():
            calls.append(None)
            return len(calls) > 2

        with pytest.raises(SearchCancelled, match="cancelled"):
            synthesize_layout(
                compiled,
                profile,
                CORES,
                options=SynthesisOptions(
                    seed=7, cancel_check=cancel_after_two
                ),
            )

    def test_service_checks_cancel_before_stages(self):
        event = threading.Event()
        event.set()
        from repro.schedule.anneal import SearchCancelled

        with pytest.raises(SearchCancelled, match="before compile"):
            execute_synthesize(dict(REQUEST), cancel=event)


# -- protocol fuzzing ----------------------------------------------------------


@pytest.mark.timeout(120)
class TestProtocolFuzz:
    def test_mutated_request_lines_never_crash_or_hang(self):
        """Seeded random byte mutations of a valid request line must
        produce a typed error response or a clean close — never a crash
        and never a hang (every socket op is deadline-bounded)."""
        valid = encode(
            {"op": "compile", "source": KEYWORD_SOURCE, "optimize": True}
        )[:-1]  # strip the newline; we re-add after mutation
        with ServerThread(ServeConfig()) as handle:
            rng = random.Random(1234)
            for round_index in range(40):
                line = bytearray(valid)
                for _ in range(rng.randint(1, 8)):
                    line[rng.randrange(len(line))] = rng.randrange(256)
                if rng.random() < 0.3:
                    line = line[: rng.randrange(1, len(line))]
                sock = socket.create_connection(
                    (handle.host, handle.port), timeout=10.0
                )
                try:
                    sock.sendall(bytes(line) + b"\n")
                    response = sock.makefile("rb").readline()
                finally:
                    sock.close()
                if response:
                    decoded = json.loads(response.decode("utf-8"))
                    assert "ok" in decoded, decoded
                    if not decoded["ok"]:
                        assert decoded["error"]["code"], decoded
                if round_index % 10 == 9:
                    with handle.client() as probe:
                        assert probe.ping()["pong"] is True
            with handle.client() as probe:
                assert probe.ping()["pong"] is True

    def test_binary_garbage_and_partial_lines(self):
        with ServerThread(ServeConfig(idle_timeout=0.5)) as handle:
            rng = random.Random(99)
            for payload in (
                b"\x00\x01\x02\xff\xfe\n",
                b"{\"op\": \"ping\"",  # no newline: idle timeout reclaims
                bytes(rng.randrange(256) for _ in range(512)) + b"\n",
            ):
                sock = socket.create_connection(
                    (handle.host, handle.port), timeout=10.0
                )
                sock.settimeout(10.0)
                try:
                    sock.sendall(payload)
                    sock.makefile("rb").readline()  # error line or close
                finally:
                    sock.close()
            with handle.client() as probe:
                assert probe.ping()["pong"] is True


# -- the net-chaos harness -----------------------------------------------------


class TestNetChaosPlans:
    def test_plan_zero_is_control(self):
        plan = NetChaosPlan.make(0, seed=42)
        assert plan.is_empty()
        assert "control" in plan.describe()

    def test_plans_are_seed_deterministic(self):
        for index in range(1, 6):
            assert NetChaosPlan.make(index, seed=7) == NetChaosPlan.make(
                index, seed=7
            )
        assert NetChaosPlan.make(1, seed=7) != NetChaosPlan.make(1, seed=8)

    def test_plans_use_known_kinds_within_horizon(self):
        for index in range(1, 12):
            plan = NetChaosPlan.make(index, seed=index, horizon=3)
            for fault in plan.faults:
                assert fault.kind in PROXY_FAULT_KINDS
                assert 0 <= fault.request < 3

    def test_sweep_covers_server_side_faults(self):
        plans = [NetChaosPlan.make(i, seed=i) for i in range(6)]
        assert any(plan.kill for plan in plans)
        assert any(plan.flush_fail for plan in plans)

    def test_proxy_is_transparent_without_a_plan(self):
        with ServerThread(ServeConfig()) as handle:
            proxy = ChaosProxy(handle.port)
            try:
                with ServeClient(
                    proxy.host, proxy.port, timeout=30.0
                ) as client:
                    response = client.call("synthesize", **REQUEST)
                assert canonical(response["result"]) == canonical(
                    offline_result()
                )
                assert proxy.fired == []
            finally:
                proxy.close()


@pytest.mark.timeout(300)
class TestNetChaosSweep:
    def test_small_sweep_holds_all_invariants(self, tmp_path):
        """Three plans cover the whole fault surface: plan 0 control,
        plan 1 proxy faults + flush failure, plan 2 proxy faults + a
        mid-request SIGKILL with restart."""
        report = run_net_chaos(
            plans=3, base_seed=0, workdir=str(tmp_path)
        )
        assert report.ok, "\n".join(report.violations())
        assert report.shutdown_exit == 0
        assert len(report.runs) == 3
        assert report.runs[0].plan.is_empty()
        assert report.runs[0].retries == 0
        assert report.runs[1].plan.flush_fail
        assert report.runs[2].plan.kill
        assert report.total_fired() >= 1
        payload = report.as_dict()
        assert payload["format"] == "repro.serve/net-chaos-report-v1"
        assert payload["ok"] is True
        json.dumps(payload)  # artifact must be JSON-serializable


# -- observability under chaos -------------------------------------------------


class TestObservabilityUnderChaos:
    """The chaos paths must leave the exports healthy: after a deadline
    kill or mid-drain, /metrics still renders valid Prometheus text and
    the daemon's profiler stacks are balanced (every span closed)."""

    @staticmethod
    def _fetch(handle, path):
        import urllib.request

        url = f"http://{handle.server.metrics_host}:{handle.metrics_port}{path}"
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.status, response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode("utf-8")

    @staticmethod
    def _stacks_balanced(profiler):
        return all(
            len(state.stack_node) == 1
            for state in profiler._states.values()
        )

    def test_deadline_exceeded_leaves_exports_healthy(self):
        from repro.obs.promexp import validate_prometheus_text

        config = ServeConfig(request_deadline=0.1, metrics_port=0)
        with ServerThread(config) as handle:
            with handle.client() as client:
                with pytest.raises(ServeError) as excinfo:
                    client.call("synthesize", **SLOW_REQUEST)
                assert excinfo.value.code == "deadline_exceeded"
                # Wait for the cancelled worker to come home so its
                # span unwinding has finished before we assert on it.
                for _ in range(400):
                    if client.metrics()["admitted"] == 0:
                        break
                    time.sleep(0.01)
            status, text = self._fetch(handle, "/metrics")
            assert status == 200
            summary = validate_prometheus_text(text)
            assert summary["families"] > 0
            assert "repro_serve_deadline_exceeded_total 1" in text
            # The killed request did not leak an open phase.
            assert self._stacks_balanced(handle.server.profiler)
            status, body = self._fetch(handle, "/profilez")
            assert status == 200
            names = {n["name"] for n in json.loads(body)["phases"]}
            assert "serve.synthesize" in names

    def test_draining_daemon_still_answers_metrics(self):
        from repro.obs.promexp import validate_prometheus_text

        config = ServeConfig(drain_timeout=0.3, metrics_port=0)
        with ServerThread(config) as handle:
            box = {}

            def body():
                try:
                    with handle.client(timeout=60.0) as slow:
                        box["response"] = slow.call(
                            "synthesize", **SLOW_REQUEST
                        )
                except (ServeError, ServeUnavailable, OSError) as exc:
                    box["error"] = exc

            thread = threading.Thread(target=body, daemon=True)
            thread.start()
            with handle.client() as control:
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if control.metrics()["admitted"] >= 1:
                        break
                    time.sleep(0.01)
                control.call("shutdown")
                # Mid-drain: health honestly reports unready (503) while
                # the scrape endpoint keeps answering valid text —
                # observability must not die before the daemon does.
                status, body_text = self._fetch(handle, "/healthz")
                assert status == 503
                health = json.loads(body_text)
                assert health["ok"] is False
                assert health["draining"] is True
                status, text = self._fetch(handle, "/metrics")
                assert status == 200
                validate_prometheus_text(text)
                assert "repro_serve_draining 1" in text
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            # The cancelled slow call unwound its spans too.
            assert self._stacks_balanced(handle.server.profiler)
