"""Network-level chaos for the serving layer: seeded faults, checked invariants.

The third rung of the chaos ladder — :mod:`repro.resilience.chaos`
injects faults into the *simulated machine*, :mod:`repro.search.hostchaos`
into the *host worker processes*, and this module into the *network and
daemon process* between a client and the synthesis service:

* the shared fault-injecting TCP proxy (:class:`repro.chaos.ChaosProxy`)
  sits between a retrying :class:`repro.serve.client.ServeClient` and a
  real ``repro serve`` subprocess, and — per the ``wire`` faults of a
  seeded :class:`repro.chaos.Plan` from :func:`net_plan` — resets
  connections, truncates responses mid-line, injects garbage bytes, or
  delays responses past the client's timeout;
* server-side fault points, the plan's ``phases``, fire through the
  daemon's gated ``inject`` operation (``flush_fail``: a failing store
  flush) and through a mid-request SIGKILL of the daemon process
  followed by a restart on the same cache file (``kill``).

:func:`run_net_chaos` sweeps N plans (plan 0 is always the fault-free
control) and machine-checks the serve-layer failure contract:

* **Typed outcomes** — every client call either returns the
  bit-identical result of the same request run offline, or raises a
  typed error (:class:`ServeError` / :class:`ServeUnavailable`); never a
  hang, never silently wrong bytes. Retry safety comes from determinism:
  re-sending a request after a drop can only *recover* the answer.
* **Liveness** — the daemon answers ``ping`` after every plan; injected
  client-visible faults never crash it.
* **Durability** — the on-disk cache file stays digest-valid after every
  SIGKILL (atomic writes mean a kill mid-flush leaves the previous file
  intact), and a clean ``shutdown`` at the end of the sweep exits 0 with
  a loadable, non-empty cache.
* **Degradation honesty** — an injected flush failure flips the
  daemon's ``degraded`` flag on, and the next successful flush flips it
  back off.
* **Accounting** — every planned proxy fault fires and forces at least
  one client retry; the control plan fires nothing and retries nothing.

Like its siblings, nothing raises on violation — the
:class:`NetChaosReport` carries the verdicts (and serializes to JSON for
the CI artifact). The sweep loop, the verdict classes and the accounting
check come from :mod:`repro.chaos`.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import chaos
from ..chaos import PROXY_FAULT_KINDS, ChaosProxy
from .client import (
    ClientRetryPolicy,
    ServeClient,
    ServeError,
    ServeUnavailable,
)
from .protocol import ProtocolError


def net_plan(index: int, seed: int, horizon: int = 3) -> chaos.Plan:
    """Builds the ``index``-th plan of a sweep: one or two proxy faults
    on distinct response lines below ``horizon``, plus the server-side
    phases. Plan 0 is always empty — the control. ``horizon`` must not
    exceed the number of workload calls per plan, so every designated
    line is reached even when no retry inflates the count."""
    if index == 0:
        return chaos.Plan("net", seed)
    rng = random.Random(seed)
    count = rng.randint(1, 2)
    picks = rng.sample(range(max(1, horizon)), min(horizon, count))
    wire = tuple(
        chaos.Fault(pick, rng.choice(PROXY_FAULT_KINDS))
        for pick in sorted(picks)
    )
    # Server-side fault points rotate on fixed strides so even a small
    # sweep exercises both; proxy faults stay rng-driven. ``flush_fail``
    # arms the daemon's flush fault point and checks degradation
    # reporting; ``kill`` SIGKILLs the daemon mid-request, checks the
    # cache file and restarts it.
    phases = []
    if index % 4 == 1:
        phases.append("flush_fail")
    if index % 3 == 2:
        phases.append("kill")
    return chaos.Plan("net", seed, wire=wire, phases=tuple(phases))


# -- daemon subprocess management ----------------------------------------------

_LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")


class DaemonProcess:
    """One ``repro serve`` subprocess with its announced address."""

    def __init__(
        self,
        cache_path: str,
        flush_interval: float = 3600.0,
        extra_args: Sequence[str] = (),
        startup_timeout: float = 30.0,
    ):
        self.cache_path = cache_path
        self.proc = chaos.spawn_repro(
            [
                "serve",
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--cache",
                cache_path,
                # A long write-behind period makes flushing fully
                # harness-driven (explicit `flush` ops), so the injected
                # flush-failure window is deterministic, not a race
                # against the background flusher.
                "--flush-interval",
                str(flush_interval),
                "--allow-chaos",
                *extra_args,
            ],
            stderr=subprocess.PIPE,
        )
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.stderr_tail: List[str] = []
        self._drainer: Optional[threading.Thread] = None
        deadline = time.monotonic() + startup_timeout
        assert self.proc.stderr is not None
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            text = line.decode("utf-8", "replace").rstrip()
            self.stderr_tail.append(text)
            match = _LISTEN_RE.search(text)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
        if self.port is None:
            self.kill()
            raise ServeUnavailable(
                "chaos daemon did not announce a listening address; "
                f"stderr: {self.stderr_tail!r}"
            )
        self._drainer = threading.Thread(
            target=self._drain_stderr, name="chaos-daemon-stderr", daemon=True
        )
        self._drainer.start()

    def _drain_stderr(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr_tail.append(line.decode("utf-8", "replace").rstrip())
            del self.stderr_tail[:-50]

    def _close_stderr(self) -> None:
        """After the process exited: let the drainer read to EOF, then
        close the pipe. A drainer still blocked (a child of the daemon
        holds the pipe open) keeps it, since closing under its read
        could block."""
        if self._drainer is not None:
            self._drainer.join(timeout=5.0)
            if self._drainer.is_alive():
                return
        assert self.proc.stderr is not None
        self.proc.stderr.close()

    def kill(self) -> None:
        """SIGKILL — no drain, no flush; the crash case."""
        self.proc.kill()
        self.proc.wait()
        self._close_stderr()

    def wait(self, timeout: float = 30.0) -> Optional[int]:
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        self._close_stderr()
        return code

    def client(
        self,
        timeout: float = 30.0,
        retry_policy: Optional[ClientRetryPolicy] = None,
    ) -> ServeClient:
        assert self.host is not None and self.port is not None
        return ServeClient(
            self.host, self.port, timeout=timeout, retry_policy=retry_policy
        )


# -- the sweep -----------------------------------------------------------------


@dataclass
class NetChaosRun(chaos.SweepRun):
    """Outcome of one plan."""

    calls: int = 0
    retries: int = 0
    fired: List[Tuple[int, str]] = field(default_factory=list)
    #: typed errors accepted by the contract (kill-phase call only)
    typed_errors: List[str] = field(default_factory=list)

    def counters(self) -> Dict[str, int]:
        return {"fired": len(self.fired), "retries": self.retries}


@dataclass
class NetChaosReport(chaos.SweepReport):
    """Outcome of a full net-chaos sweep; its sweep-level violations come
    from the final shutdown and cache checks."""

    #: exit code of the final graceful shutdown (0 = clean drain + flush)
    shutdown_exit: Optional[int] = None

    INVARIANTS = (
        "typed outcomes, result bit-identity, daemon liveness, cache "
        "durability, degradation reporting"
    )

    def total_fired(self) -> int:
        return self.total("fired")

    def total_retries(self) -> int:
        return self.total("retries")

    def summary(self) -> List[str]:
        kills = sum(1 for run in self.runs if "kill" in run.plan.phases)
        flush_fails = sum(
            1 for run in self.runs if "flush_fail" in run.plan.phases
        )
        return [
            f"net chaos: {len(self.runs)} plan(s), "
            f"{self.total_fired()} proxy fault(s) fired, "
            f"{kills} daemon kill(s), {flush_fails} flush failure(s), "
            f"{self.total_retries()} client retry(ies), "
            f"shutdown exit {self.shutdown_exit}"
        ]

    def artifact_fields(self) -> Dict[str, object]:
        return {
            "format": "repro.serve/net-chaos-report-v1",
            "plans": len(self.runs),
            "proxy_faults_fired": self.total_fired(),
            "client_retries": self.total_retries(),
            "shutdown_exit": self.shutdown_exit,
        }


def _canonical(result) -> str:
    """The byte-comparison form of a deterministic result (matches the
    ``repro request`` stdout contract: sorted keys)."""
    return json.dumps(result, sort_keys=True)


def _offline(op: str, params: Dict[str, object]) -> str:
    """The offline pipeline's answer to one request, in byte-comparison
    form: what every served call of it must reproduce."""
    from .service import Request, execute

    return _canonical(execute(Request.parse(op, params))[0])


def _default_params(
    bench: str, cores: int, seed: int, max_evaluations: int
) -> Dict[str, object]:
    from ..bench import get_spec

    spec = get_spec(bench)
    with open(spec.path, "r") as handle:
        source = handle.read()
    return {
        "source": source,
        "filename": spec.filename,
        "args": ["24"],
        "optimize": True,
        "cores": cores,
        "seed": seed,
        "max_iterations": 6,
        "max_evaluations": max_evaluations,
    }


def run_net_chaos(
    plans: int = 8,
    base_seed: int = 0,
    workdir: Optional[str] = None,
    bench: str = "Keyword",
    cores: int = 4,
    seed: int = 0,
    max_evaluations: int = 60,
    client_timeout: float = 1.0,
    delay_seconds: float = 1.6,
    params: Optional[Dict[str, object]] = None,
) -> NetChaosReport:
    """Runs a full net-chaos sweep against a real daemon subprocess.

    Per plan, a retrying client issues three heavy calls (synthesize,
    simulate with the synthesized layout, synthesize again) through the
    fault-injecting proxy; plans may additionally SIGKILL the daemon
    mid-request (with restart + cache durability check) and arm the
    flush fault point (with degradation reporting check). ``params``
    overrides the synthesize request (default: the Keyword benchmark at
    a small budget). Nothing raises on violation — the report carries
    the verdicts.
    """
    import tempfile

    cleanup: Optional[tempfile.TemporaryDirectory] = None
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-netchaos-")
        workdir = cleanup.name
    cache_path = os.path.join(workdir, "netchaos-cache.bin")
    synth_params = dict(
        params
        if params is not None
        else _default_params(bench, cores, seed, max_evaluations)
    )

    try:
        # Offline baselines: the bytes every served call must reproduce.
        synth_baseline = _offline("synthesize", synth_params)
        simulate_params = {
            key: synth_params[key]
            for key in ("source", "filename", "args", "optimize", "cores")
        }
        simulate_params["layout"] = json.loads(synth_baseline)["layout"]
        simulate_baseline = _offline("simulate", simulate_params)
        workload = [
            ("synthesize", synth_params, synth_baseline),
            ("simulate", simulate_params, simulate_baseline),
            ("synthesize", synth_params, synth_baseline),
        ]

        daemon = DaemonProcess(cache_path)
        proxy = ChaosProxy(daemon.port, delay_seconds=delay_seconds)
        try:
            # Warm the daemon (cache + program memo) and persist once, so
            # plan calls answer in milliseconds and a short client
            # timeout cannot fire spuriously on the control plan.
            with daemon.client() as warmup:
                warmup.call("synthesize", **synth_params)
                warmup.call("simulate", **simulate_params)
                warmup.flush()

            def execute(run: NetChaosRun) -> None:
                nonlocal daemon
                daemon = _run_plan(
                    run,
                    daemon,
                    proxy,
                    workload,
                    cache_path,
                    client_timeout,
                    synth_params,
                )

            report = NetChaosReport(
                runs=chaos.sweep(
                    NetChaosRun,
                    plans,
                    base_seed,
                    lambda index, seed: net_plan(
                        index, seed, horizon=len(workload)
                    ),
                    execute,
                )
            )
            _final_checks(report, daemon, cache_path)
        finally:
            proxy.close()
            if daemon.proc.poll() is None:
                daemon.kill()
        return report
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def _run_plan(
    run: NetChaosRun,
    daemon: DaemonProcess,
    proxy: ChaosProxy,
    workload,
    cache_path: str,
    client_timeout: float,
    synth_params: Dict[str, object],
) -> DaemonProcess:
    """One plan: proxy-faulted workload, then the server-side fault
    phases. Returns the (possibly restarted) daemon."""
    plan = run.plan
    proxy.arm(plan)
    policy = ClientRetryPolicy(
        max_attempts=6, backoff_base=0.02, backoff_cap=0.25
    )
    with ServeClient(
        proxy.host, proxy.port, timeout=client_timeout, retry_policy=policy
    ) as client:
        for op, call_params, baseline in workload:
            run.calls += 1
            response = client.call(op, **call_params)
            if _canonical(response["result"]) != baseline:
                run.violations.append(
                    f"call {run.calls} ({op}) diverged from the offline "
                    f"baseline through injected faults"
                )
        run.retries = client.retries
    run.fired = list(proxy.fired)
    proxy.arm(None)

    if "kill" in plan.phases:
        daemon = _kill_phase(run, daemon, proxy, cache_path, synth_params)
    if "flush_fail" in plan.phases:
        _flush_fail_phase(run, daemon, synth_params)

    # Liveness: whatever was injected, the daemon answers afterwards.
    try:
        with daemon.client(timeout=10.0) as probe:
            probe.ping()
    except Exception as exc:  # noqa: BLE001
        run.violations.append(
            f"daemon unresponsive after plan: {type(exc).__name__}: {exc}"
        )

    chaos.check_accounting(
        run,
        planned=len(plan.wire),
        fired=len(run.fired),
        retries=run.retries,
    )
    return daemon


def _kill_phase(
    run: NetChaosRun,
    daemon: DaemonProcess,
    proxy: ChaosProxy,
    cache_path: str,
    synth_params: Dict[str, object],
) -> DaemonProcess:
    """SIGKILL the daemon while a cold request is in flight, verify the
    cache file survived, restart, and require the in-flight call to end
    in bit-identity or a typed error."""
    from .store import SimCacheStore

    cold_params = dict(synth_params)
    cold_params["seed"] = 1000 + run.index
    cold_baseline = _offline("synthesize", cold_params)

    outcome: Dict[str, object] = {}

    def _background_call() -> None:
        try:
            with ServeClient(
                proxy.host,
                proxy.port,
                timeout=15.0,
                retry_policy=ClientRetryPolicy(
                    max_attempts=10, backoff_base=0.05, backoff_cap=0.5
                ),
            ) as client:
                outcome["result"] = client.call("synthesize", **cold_params)[
                    "result"
                ]
        except (ServeError, ServeUnavailable, ProtocolError, OSError) as exc:
            outcome["typed_error"] = f"{type(exc).__name__}: {exc}"
        except BaseException as exc:  # noqa: BLE001 - anything else is a bug
            outcome["untyped_error"] = f"{type(exc).__name__}: {exc}"

    caller = threading.Thread(
        target=_background_call, name="chaos-kill-call", daemon=True
    )
    caller.start()

    # Kill once the daemon has admitted the request (or the call won the
    # race and already finished — also a legal interleaving).
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and caller.is_alive():
        try:
            with daemon.client(timeout=2.0) as probe:
                if int(probe.metrics().get("admitted", 0)) >= 1:
                    break
        except Exception:  # noqa: BLE001 - daemon busy/slow; keep polling
            pass
        time.sleep(0.005)
    daemon.kill()

    # Durability: atomic writes must leave the cache file digest-valid
    # (or absent) after an uncoordinated kill.
    probe_store = SimCacheStore(path=cache_path)
    load = probe_store.load()
    if load.refused:
        run.violations.append(
            f"cache file corrupt after SIGKILL: {load.error}"
        )

    daemon = DaemonProcess(cache_path)
    proxy.set_upstream(daemon.port)

    caller.join(timeout=60.0)
    if caller.is_alive():
        run.violations.append(
            "client call hung through daemon kill (typed outcome contract "
            "broken)"
        )
    elif "untyped_error" in outcome:
        run.violations.append(
            f"client call died with an untyped error: "
            f"{outcome['untyped_error']}"
        )
    elif "typed_error" in outcome:
        run.typed_errors.append(str(outcome["typed_error"]))
    elif _canonical(outcome.get("result")) != cold_baseline:
        run.violations.append(
            "call surviving the daemon kill returned bytes different from "
            "the offline baseline"
        )
    return daemon


def _flush_fail_phase(
    run: NetChaosRun, daemon: DaemonProcess, synth_params: Dict[str, object]
) -> None:
    """Arm one flush failure; the daemon must report ``degraded: true``
    until the next successful flush clears it."""
    with daemon.client(timeout=30.0) as client:
        client.call("inject", fault="flush_fail", count=1)
        client.call("synthesize", **synth_params)  # served while armed
        try:
            client.flush()
            run.violations.append(
                "armed flush failure did not fail the flush operation"
            )
            return
        except ServeError as exc:
            if exc.code != "internal_error":
                run.violations.append(
                    f"injected flush failure surfaced as {exc.code!r}, "
                    f"expected 'internal_error'"
                )
        if not client.ping().get("degraded"):
            run.violations.append(
                "daemon did not report degraded after a failed flush"
            )
        metrics = client.metrics()
        if not metrics.get("degraded") or not metrics.get("last_flush_error"):
            run.violations.append(
                "metrics snapshot missing degraded/last_flush_error after "
                "a failed flush"
            )
        client.flush()
        if client.ping().get("degraded"):
            run.violations.append(
                "degraded flag stuck after a successful flush"
            )


def _final_checks(
    report: NetChaosReport, daemon: DaemonProcess, cache_path: str
) -> None:
    """Graceful-shutdown invariants: clean exit, loadable non-empty cache."""
    from .store import SimCacheStore

    try:
        with daemon.client(timeout=30.0) as client:
            client.shutdown()
    except Exception as exc:  # noqa: BLE001
        report.sweep_violations.append(
            f"graceful shutdown request failed: {type(exc).__name__}: {exc}"
        )
        return
    exit_code = daemon.wait(timeout=30.0)
    report.shutdown_exit = exit_code
    if exit_code != 0:
        report.sweep_violations.append(
            f"daemon exited {exit_code} from a graceful shutdown"
        )
    load = SimCacheStore(path=cache_path).load()
    if load.refused:
        report.sweep_violations.append(
            f"cache file corrupt after graceful shutdown: {load.error}"
        )
    elif load.entries < 1:
        report.sweep_violations.append(
            "graceful shutdown flushed an empty cache despite served work"
        )
