"""The synthesis service: cold vs warm latency of the persistent SimCache.

One fixed synthesize request (KMeans at 16 cores, the Figure 10 search
workload) is served three ways against the same daemon cache file:

1. **Cold** — fresh daemon, empty cache file: the full DSA search runs.
2. **Warm, same daemon** — the identical request again: answered from
   the in-memory shared cache.
3. **Warm, restarted daemon** — the daemon is stopped (flushing the
   cache to disk) and a new one started on the same file: the request
   is answered purely from the *persisted* cache — zero simulations.

The serving-transparency contract is asserted throughout: all three
responses (and an offline run of the same request) are bit-identical;
only latency and cache accounting may differ. Results are recorded as
one JSON telemetry document (``benchmarks/out/serve.json``).
"""

import json
import os
import time

from conftest import emit
from repro.bench import get_spec
from repro.serve import ServeConfig, ServerThread
from repro.serve.service import Request, execute
from repro.viz import render_table
from telemetry import write_telemetry

BENCH = "KMeans"
NUM_CORES = 16


def _request_params():
    spec = get_spec(BENCH)
    with open(spec.path, "r") as handle:
        source = handle.read()
    params = {
        "source": source,
        "args": list(spec.args),
        "optimize": True,
        "cores": NUM_CORES,
        "seed": 0,
        "max_iterations": 10,
        "max_evaluations": 600,
    }
    if spec.hints:
        params["hints"] = dict(spec.hints)
    return params


def _timed_synthesize(client, params):
    started = time.perf_counter()
    response = client.call("synthesize", **params)
    wall = time.perf_counter() - started
    return response["result"], response["telemetry"], wall


def run_all(cache_path):
    params = _request_params()
    measurements = {}

    with ServerThread(ServeConfig(cache_path=cache_path)) as handle:
        with handle.client(timeout=600.0) as client:
            measurements["cold"] = _timed_synthesize(client, params)
            measurements["warm_memory"] = _timed_synthesize(client, params)
            hit_rate = client.metrics()["cache_hit_rate"]

    with ServerThread(ServeConfig(cache_path=cache_path)) as handle:
        with handle.client(timeout=600.0) as client:
            assert "warm cache" in client.ping()["cache"]
            measurements["warm_restart"] = _timed_synthesize(client, params)

    offline_result, _telemetry = execute(Request.parse("synthesize", params))
    return measurements, hit_rate, offline_result


def test_serve_cold_vs_warm(benchmark, tmp_path_factory):
    cache_path = str(tmp_path_factory.mktemp("serve") / "simcache.bin")
    measurements, hit_rate, offline_result = benchmark.pedantic(
        run_all, args=(cache_path,), iterations=1, rounds=1
    )

    cold_result, cold_telemetry, cold_wall = measurements["cold"]
    _memory_result, memory_telemetry, memory_wall = measurements["warm_memory"]
    warm_result, warm_telemetry, warm_wall = measurements["warm_restart"]

    # Serving transparency: every path returns the same bytes.
    canonical = lambda r: json.dumps(r, sort_keys=True)
    assert canonical(cold_result) == canonical(offline_result)
    assert canonical(warm_result) == canonical(cold_result)
    assert canonical(_memory_result) == canonical(cold_result)

    # The cold run searched; both warm runs answered without simulating.
    assert cold_telemetry["evaluations"] > 0
    assert memory_telemetry["evaluations"] == 0
    assert warm_telemetry["evaluations"] == 0
    assert warm_telemetry["cache_hits"] > 0
    # The headline claim: restart latency is paid from disk, not search.
    assert warm_wall < cold_wall

    table = render_table(
        ["Path", "Wall", "Simulations", "Cache hits"],
        [
            ["cold (empty cache)", f"{cold_wall:.2f}s",
             cold_telemetry["evaluations"], cold_telemetry["cache_hits"]],
            ["warm (same daemon)", f"{memory_wall:.2f}s",
             memory_telemetry["evaluations"], memory_telemetry["cache_hits"]],
            ["warm (after restart)", f"{warm_wall:.2f}s",
             warm_telemetry["evaluations"], warm_telemetry["cache_hits"]],
        ],
    )
    emit(
        f"Synthesis service: persistent SimCache ({BENCH}, {NUM_CORES} cores)",
        table
        + f"\n\ndaemon cache hit rate: {hit_rate:.1%}"
        + f"\nrestart speedup:       {cold_wall / warm_wall:.1f}x"
        + "\nall responses bit-identical to offline: True",
        artifact="serve.txt",
    )
    write_telemetry(
        "serve",
        {
            "benchmark": BENCH,
            "num_cores": NUM_CORES,
            "estimated_cycles": cold_result["estimated_cycles"],
            "cold": {
                "wall_seconds": cold_wall,
                "evaluations": cold_telemetry["evaluations"],
                "cache_hits": cold_telemetry["cache_hits"],
            },
            "warm_memory": {
                "wall_seconds": memory_wall,
                "evaluations": memory_telemetry["evaluations"],
                "cache_hits": memory_telemetry["cache_hits"],
            },
            "warm_restart": {
                "wall_seconds": warm_wall,
                "evaluations": warm_telemetry["evaluations"],
                "cache_hits": warm_telemetry["cache_hits"],
            },
            "cache_hit_rate": hit_rate,
            "restart_speedup": cold_wall / warm_wall,
            "bit_identical_to_offline": True,
            "cache_file_bytes": os.path.getsize(cache_path),
        },
    )
