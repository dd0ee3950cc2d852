"""Metrics registry and machine-checked end-of-run cycle accounting.

The registry holds three primitive instrument kinds — counters, gauges,
and histograms — and :func:`build_metrics` populates it from a machine
run's typed event stream, deriving:

* per-core **utilization** over each core's live window,
* **run-queue depth** over time (time-weighted mean and peak per core),
* **lock-contention** and **retry** rates,
* per-task **latency histograms** (span durations and queue waits), and
* the end-of-run **cycle accounting**: every (core, cycle) of the run is
  classified as exactly one of *busy* (occupied by a span, stall, or
  heartbeat charge), *blocked* (idle with formed invocations queued —
  lock contention or a stalled dispatch path), *idle* (no runnable
  work), or *dead* (after the core's final death), and the identity

      busy + idle + blocked + dead == makespan x cores

  is checked exactly, along with the instrumentation soundness that
  makes it non-trivial: occupancy intervals must not overlap, must not
  extend past a core's death, queue depths must never go negative, and
  the event-stream counters must reconcile with the machine's own
  statistics (commits vs invocation counts, sends vs message count,
  lock-fail events vs the lock-failure counter).

A violation raises :class:`repro.lang.errors.ScheduleError` — the same
hard-failure treatment the termination invariant gets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..lang.errors import ScheduleError
from .events import (
    Crash,
    Detect,
    Evict,
    Event,
    Heartbeat,
    LinkDegradeEvent,
    LockAcquire,
    LockFail,
    MailRecv,
    MailSend,
    Quarantine,
    QueueDepth,
    Rejoin,
    Stall,
    TaskCommit,
    TaskDispatch,
    TaskPreempt,
    TaskRetry,
    occupancy_intervals,
)

SCHEMA = "repro.obs/metrics-v1"
SEARCH_SCHEMA = "repro.obs/search-metrics-v1"
SERVE_SCHEMA = "repro.obs/serve-metrics-v1"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


#: Default histogram boundaries, in seconds: sub-millisecond buckets at
#: the bottom (profiler phase latencies live there) up through the
#: multi-second synthesize requests the serve layer measures.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Boundaries for histograms observed in simulated cycles (task
#: latencies, queue waits) rather than seconds.
CYCLE_BUCKETS: Tuple[float, ...] = (
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000,
    50_000, 100_000, 250_000, 1_000_000,
)


class Histogram:
    """A distribution of observed values with summary statistics.

    ``buckets`` are upper bounds (ascending; an implicit ``+Inf`` bucket
    is always present) used by :meth:`bucket_counts` for the ``buckets``
    key of :meth:`summary`. Boundaries
    are configurable per histogram because the registry mixes unit
    domains: seconds for serve/profiler latencies, simulated cycles for
    machine-run distributions.
    """

    __slots__ = ("name", "values", "buckets")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.values: List[float] = []
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(
                f"histogram {name!r}: bucket bounds must be a non-empty "
                f"ascending sequence"
            )
        self.buckets = bounds

    def observe(self, value: float) -> None:
        self.values.append(value)

    def bucket_counts(self) -> Dict[str, int]:
        """Cumulative observation counts per upper bound (a value equal
        to a bound counts in it), including the terminal ``+Inf`` bucket."""
        counts: Dict[str, int] = {}
        ordered = sorted(self.values)
        index = 0
        for bound in self.buckets:
            while index < len(ordered) and ordered[index] <= bound:
                index += 1
            counts[_bucket_label(bound)] = index
        counts["+Inf"] = len(ordered)
        return counts

    def summary(self) -> Dict[str, object]:
        if not self.values:
            return {"count": 0, "sum": 0, "min": 0, "max": 0, "mean": 0,
                    "p50": 0, "p90": 0, "p99": 0,
                    "buckets": self.bucket_counts()}
        ordered = sorted(self.values)
        total = sum(ordered)

        def pct(q: float) -> float:
            index = min(len(ordered) - 1, int(q * len(ordered)))
            return ordered[index]

        return {
            "count": len(ordered),
            "sum": total,
            "min": ordered[0],
            "max": ordered[-1],
            "mean": total / len(ordered),
            "p50": pct(0.50),
            "p90": pct(0.90),
            "p99": pct(0.99),
            "buckets": self.bucket_counts(),
        }


def _bucket_label(bound: float) -> str:
    value = float(bound)
    return str(int(value)) if value.is_integer() else repr(value)


class MetricsRegistry:
    """Named counters, gauges, and histograms (get-or-create semantics)."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get-or-create; ``buckets`` only takes effect on creation (the
        first registration of a family fixes its boundaries)."""
        if name not in self.histograms:
            self.histograms[name] = Histogram(name, buckets=buckets)
        return self.histograms[name]

    def fill_counters(self, prefix: str, counts: Dict[str, object]) -> None:
        """Sets counter ``prefix + name`` to every nonzero integer in
        ``counts`` (booleans skipped).

        Counts that live on a stats object (a
        :class:`repro.search.SimCache`, the daemon's store) enter a
        registry only this way, when it is exported, so no count is kept
        in two places.
        """
        for name, value in counts.items():
            if type(value) is int and value:
                self.counter(prefix + name).value = value

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-ready dump of every instrument."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self.counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self.gauges.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self.histograms.items())
            },
        }


# -- layout-search metrics -----------------------------------------------------


def build_search_metrics(
    *,
    workers: int,
    wall_seconds: float,
    evaluations: int,
    cache_hits: int,
    cache_stats: Optional[Dict[str, object]],
    supervision: Optional[Dict[str, object]] = None,
    checkpoints_written: int = 0,
    events: Optional[Sequence[object]] = None,
    dist: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The JSON-ready metrics snapshot of one layout-search run.

    The synthesis pipeline calls this with the :mod:`repro.search`
    counters (real simulations, cache hits/misses/evictions) so search
    telemetry exports through the same pipeline as machine metrics —
    :func:`repro.obs.write_metrics_snapshot` accepts either snapshot.
    ``cache_stats`` is :meth:`repro.search.SimCache.cache_stats` (``None``
    with the cache off).

    ``supervision`` is the host-fault supervision summary
    (:meth:`repro.search.SupervisionStats.snapshot`, ``None`` for
    serial runs) and ``events`` the typed host-level events
    (``WorkerRetry``/``PoolRebuild``/``CheckpointWritten``) the run
    emitted; both deliberately carry no wall-clock fields, so fault-free
    snapshots stay byte-comparable across runs.

    ``dist`` is the distributed-search coordinator summary
    (:meth:`repro.search.dist.DistStats.snapshot`, ``None`` for
    single-host runs) — counters only, same no-wall-clock rule.
    """
    requested = evaluations + cache_hits
    return {
        "schema": SEARCH_SCHEMA,
        "workers": workers,
        "wall_seconds": wall_seconds,
        "evaluations": evaluations,
        "cache_hits": cache_hits,
        "requested_evaluations": requested,
        "cache_hit_rate": cache_hits / requested if requested else 0.0,
        "sim_cache": cache_stats,
        "supervision": supervision,
        "dist": dist,
        "checkpoints_written": checkpoints_written,
        "events": [
            event.to_json() if hasattr(event, "to_json") else event
            for event in (events or [])
        ],
    }


# -- serving metrics -----------------------------------------------------------


def build_serve_metrics(
    *,
    registry: MetricsRegistry,
    store: Dict[str, object],
    memo: Dict[str, object],
    load_report: Dict[str, object],
    uptime_seconds: float,
    admitted: int,
    capacity: int,
    degraded: bool = False,
    draining: bool = False,
    last_flush_error: Optional[Dict[str, object]] = None,
    profile: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The JSON-ready metrics snapshot of one synthesis daemon.

    Served through the ``metrics`` operation of :mod:`repro.serve`: the
    registry carries the per-operation request counters and latency
    histograms plus the load-shed/coalesce/deadline/drain counters, and
    the daemon fills in the ``sim_cache_*`` totals of its context caches
    before each export;
    ``store``/``memo`` are the :meth:`repro.serve.SimCacheStore.stats`
    and :meth:`repro.serve.ProgramMemo.stats` snapshots, and
    ``load_report`` records what happened to the persistent cache file at
    startup. ``degraded`` is the daemon's persistence-health flag: true
    while the most recent store flush failed (``last_flush_error`` then
    carries the error string and its epoch timestamp). ``profile`` is the
    daemon's wall-clock profile, a ``repro.obs/profile-v1`` document.
    """
    requests = registry.counter("serve_requests").value
    shed = registry.counter("serve_shed").value
    hits = registry.counter("serve_cache_hits").value
    evaluations = registry.counter("serve_evaluations").value
    requested = hits + evaluations
    return {
        "schema": SERVE_SCHEMA,
        "uptime_seconds": uptime_seconds,
        "admitted": admitted,
        "capacity": capacity,
        "requests": requests,
        "shed": shed,
        "shed_rate": shed / requests if requests else 0.0,
        "cache_hit_rate": hits / requested if requested else 0.0,
        "degraded": degraded,
        "draining": draining,
        "last_flush_error": last_flush_error,
        "store": store,
        "memo": memo,
        "load_report": load_report,
        "profile": profile,
        **registry.snapshot(),
    }


# -- cycle accounting ----------------------------------------------------------


def _blocked_cycles(
    gaps: Sequence[Tuple[int, int]], samples: Sequence[Tuple[int, int]]
) -> int:
    """Cycles inside ``gaps`` during which the queue-depth step function
    (from ``samples``, an implied 0 before the first) is positive."""
    total = 0
    index = 0
    depth = 0
    for begin, end in gaps:
        while index < len(samples) and samples[index][0] <= begin:
            depth = samples[index][1]
            index += 1
        cursor = begin
        while index < len(samples) and samples[index][0] < end:
            step_time, step_depth = samples[index]
            if depth > 0:
                total += step_time - cursor
            cursor = step_time
            depth = step_depth
            index += 1
        if depth > 0:
            total += end - cursor
    return total


def cycle_accounting(
    events: List[Event],
    makespan: int,
    cores: Sequence[int],
    death_cycles: Dict[int, int],
) -> Dict[int, Dict[str, int]]:
    """Partitions every core's ``[0, makespan)`` into busy / blocked /
    idle / dead and verifies the partition is sound.

    Returns ``{core: {"busy", "blocked", "idle", "dead"}}``; raises
    :class:`ScheduleError` when the instrumentation does not tile the run
    exactly (overlapping occupancy, occupancy past a core's death, a
    negative queue depth, or a negative residual).
    """
    occupancy = occupancy_intervals(events)
    queue_samples: Dict[int, List[Tuple[int, int]]] = {}
    for event in events:
        if isinstance(event, QueueDepth):
            if event.depth < 0:
                raise ScheduleError(
                    f"cycle accounting violated: negative queue depth "
                    f"{event.depth} on core {event.core} at {event.time}"
                )
            queue_samples.setdefault(event.core, []).append(
                (event.time, event.depth)
            )

    problems: List[str] = []
    accounts: Dict[int, Dict[str, int]] = {}
    for core in cores:
        death = death_cycles.get(core)
        dead_start = makespan if death is None else min(death, makespan)
        intervals = sorted(occupancy.get(core, []))
        busy = 0
        gaps: List[Tuple[int, int]] = []
        cursor = 0
        previous_end = 0
        for start, end, _label, _span in intervals:
            if start < previous_end:
                problems.append(
                    f"core {core}: overlapping occupancy at cycle {start}"
                )
            previous_end = max(previous_end, end)
            # An interval straddling the core's death means a missing
            # truncation (charged cycles survived the write-off). Tails
            # past the *makespan* on live cores are legitimate — heartbeat
            # charges and stall freezes can outlast the last real event —
            # and simply clip below. Post-death intervals on an evicted
            # core (a suspected core can still stall) clip to nothing.
            if death is not None and start < dead_start < end:
                problems.append(
                    f"core {core}: occupancy straddles death "
                    f"([{start}, {end}) vs death {dead_start})"
                )
            clipped_start = min(max(0, start), dead_start)
            clipped_end = min(end, dead_start)
            if clipped_end > clipped_start:
                busy += clipped_end - clipped_start
                if clipped_start > cursor:
                    gaps.append((cursor, clipped_start))
                cursor = max(cursor, clipped_end)
        if cursor < dead_start:
            gaps.append((cursor, dead_start))
        blocked = _blocked_cycles(gaps, queue_samples.get(core, []))
        idle = dead_start - busy - blocked
        dead = makespan - dead_start
        if idle < 0:
            problems.append(
                f"core {core}: negative idle residual ({idle}) — busy "
                f"{busy} + blocked {blocked} exceed the live window"
            )
        accounts[core] = {
            "busy": busy,
            "blocked": blocked,
            "idle": idle,
            "dead": dead,
        }
        if busy + blocked + idle + dead != makespan:
            problems.append(
                f"core {core}: busy+blocked+idle+dead == "
                f"{busy + blocked + idle + dead} != makespan {makespan}"
            )
    if problems:
        raise ScheduleError(
            "cycle accounting violated: " + "; ".join(problems)
        )
    return accounts


def _legacy_busy_fraction(
    core_busy: Dict[int, int], makespan: int, deaths: Dict[int, int]
) -> float:
    """``MachineResult.busy_fraction`` recomputed term for term, so the
    two code paths can be asserted to agree."""
    if not core_busy or makespan == 0:
        return 0.0
    live_window = 0
    for core in core_busy:
        live_window += min(deaths.get(core, makespan), makespan)
    if live_window == 0:
        return 0.0
    return sum(core_busy.values()) / live_window


def _queue_depth_aggregates(
    events: List[Event], makespan: int
) -> Dict[int, Dict[str, float]]:
    """Per-core time-weighted mean and peak of the ready-queue depth."""
    samples: Dict[int, List[Tuple[int, int]]] = {}
    for event in events:
        if isinstance(event, QueueDepth):
            samples.setdefault(event.core, []).append((event.time, event.depth))
    aggregates: Dict[int, Dict[str, float]] = {}
    for core, series in samples.items():
        area = 0
        peak = 0
        depth = 0
        cursor = 0
        for time, new_depth in series:
            clipped = min(max(time, 0), makespan)
            area += depth * (clipped - cursor)
            cursor = clipped
            depth = new_depth
            peak = max(peak, new_depth)
        area += depth * max(0, makespan - cursor)
        aggregates[core] = {
            "mean_depth": area / makespan if makespan else 0.0,
            "peak_depth": float(peak),
        }
    return aggregates


def build_metrics(
    events: List[Event],
    *,
    makespan: int,
    core_busy: Dict[int, int],
    death_cycles: Optional[Dict[int, int]],
    invocations: Dict[str, int],
    messages: int,
    lock_failures: int,
    busy_fraction: float,
) -> Dict[str, object]:
    """Derives the full metrics snapshot for one observed machine run.

    Verifies the cycle-accounting invariant and reconciles the event
    stream against the machine's own statistics; any disagreement raises
    :class:`ScheduleError`. The returned dict is JSON-serializable.
    """
    deaths = death_cycles or {}
    cores = sorted(core_busy)
    registry = MetricsRegistry()

    span_starts: Dict[int, TaskDispatch] = {}
    for event in events:
        if isinstance(event, TaskDispatch):
            registry.counter("task_dispatches").inc()
            span_starts[event.span] = event
            registry.histogram("queue_wait", buckets=CYCLE_BUCKETS).observe(
                event.start - event.formed_at
            )
        elif isinstance(event, TaskCommit):
            registry.counter("task_commits").inc()
            dispatch = span_starts.get(event.span)
            if dispatch is not None:
                latency = event.time - dispatch.start
                registry.histogram("task_latency", buckets=CYCLE_BUCKETS).observe(latency)
                registry.histogram(
                    f"task_latency[{event.task}]", buckets=CYCLE_BUCKETS
                ).observe(
                    latency
                )
        elif isinstance(event, TaskPreempt):
            registry.counter("task_preemptions").inc()
        elif isinstance(event, TaskRetry):
            registry.counter("task_retries").inc()
        elif isinstance(event, LockAcquire):
            registry.counter("lock_acquires").inc()
        elif isinstance(event, LockFail):
            registry.counter("lock_failures").inc()
        elif isinstance(event, MailSend):
            registry.counter("mail_sent").inc()
        elif isinstance(event, MailRecv):
            registry.counter("mail_received").inc()
        elif isinstance(event, Heartbeat):
            registry.counter("heartbeats").inc()
        elif isinstance(event, Crash):
            registry.counter("crashes").inc()
        elif isinstance(event, Stall):
            registry.counter("stalls").inc()
        elif isinstance(event, Detect):
            registry.counter("detections").inc()
            registry.histogram(
                "detection_latency", buckets=CYCLE_BUCKETS
            ).observe(event.latency)
        elif isinstance(event, Evict):
            registry.counter("evictions").inc()
        elif isinstance(event, Rejoin):
            registry.counter("rejoins").inc()
        elif isinstance(event, LinkDegradeEvent):
            registry.counter("link_events").inc()
        elif isinstance(event, Quarantine):
            registry.counter("quarantines").inc()

    # -- reconcile against the machine's own statistics ----------------------
    problems: List[str] = []
    commits = registry.counter("task_commits").value
    if commits != sum(invocations.values()):
        problems.append(
            f"commit events ({commits}) != invocation counts "
            f"({sum(invocations.values())})"
        )
    sends = registry.counter("mail_sent").value
    if sends != messages:
        problems.append(f"send events ({sends}) != messages ({messages})")
    fails = registry.counter("lock_failures").value
    if fails != lock_failures:
        problems.append(
            f"lock-fail events ({fails}) != lock failures ({lock_failures})"
        )
    recomputed = _legacy_busy_fraction(core_busy, makespan, deaths)
    if recomputed != busy_fraction:
        problems.append(
            f"busy_fraction disagreement: metrics {recomputed} vs "
            f"MachineResult {busy_fraction}"
        )
    if problems:
        raise ScheduleError("metrics reconciliation failed: " + "; ".join(problems))

    # -- accounting + derived gauges -----------------------------------------
    accounts = cycle_accounting(events, makespan, cores, deaths)
    dispatches = registry.counter("task_dispatches").value
    registry.gauge("lock_contention_rate").set(
        fails / (dispatches + fails) if (dispatches + fails) else 0.0
    )
    registry.gauge("retry_rate").set(
        registry.counter("task_retries").value / dispatches
        if dispatches
        else 0.0
    )

    queue_aggregates = _queue_depth_aggregates(events, makespan)
    per_core: Dict[int, Dict[str, object]] = {}
    for core in cores:
        account = accounts[core]
        live_window = makespan - account["dead"]
        utilization = account["busy"] / live_window if live_window else 0.0
        registry.gauge(f"utilization[core {core}]").set(utilization)
        per_core[core] = {
            **account,
            "live_window": live_window,
            "utilization": utilization,
            "legacy_busy": core_busy.get(core, 0),
            **queue_aggregates.get(
                core, {"mean_depth": 0.0, "peak_depth": 0.0}
            ),
        }

    totals = {
        key: sum(account[key] for account in accounts.values())
        for key in ("busy", "blocked", "idle", "dead")
    }
    snapshot: Dict[str, object] = {
        "schema": SCHEMA,
        "makespan": makespan,
        "cores": len(cores),
        "events": len(events),
        "busy_fraction": busy_fraction,
        "accounting": {
            "identity": "busy + blocked + idle + dead == makespan x cores",
            "per_core": accounts,
            "totals": totals,
            "makespan_x_cores": makespan * len(cores),
        },
        "per_core": per_core,
        **registry.snapshot(),
    }
    total_cycles = sum(totals.values())
    if total_cycles != makespan * len(cores):
        raise ScheduleError(
            f"cycle accounting violated: totals {total_cycles} != "
            f"makespan x cores {makespan * len(cores)}"
        )
    return snapshot
