"""Observability: structured tracing, metrics, and timeline export.

The paper's whole synthesis loop (§5-§6) is driven by measurement —
single-core profiles, simulated traces, critical-path analysis — and this
package gives the *machine* the same treatment: every dispatch, commit,
lock failure, message, heartbeat, and fault/recovery phase becomes a
typed, timestamped event (:mod:`repro.obs.events`); a metrics registry
derives utilization, queue depths, latency histograms, and an end-of-run
cycle accounting that is machine-checked to tile the run exactly
(:mod:`repro.obs.metrics`); and the event stream exports to Chrome
trace-event JSON loadable in Perfetto (:mod:`repro.obs.export`).

Observability is strictly pay-for-what-you-use: with
``MachineConfig.observe`` off (the default) no tracer is installed, no
per-event allocation happens, and a run is bit-identical to one without
this package.
"""

from . import prof
from .artifacts import (
    ArtifactError,
    identify,
    load_artifact,
    summarize_artifact,
    validate_artifact,
)
from .events import (
    CheckpointWritten,
    Event,
    PoolRebuild,
    Tracer,
    WorkerRetry,
    occupancy_intervals,
)
from .export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_snapshot,
)
from .metrics import (
    CYCLE_BUCKETS,
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    build_metrics,
    build_search_metrics,
    build_serve_metrics,
    cycle_accounting,
)
from .prof import PROFILE_SCHEMA, Profiler
from .runmeta import run_metadata

__all__ = [
    "ArtifactError",
    "CYCLE_BUCKETS",
    "CheckpointWritten",
    "DEFAULT_BUCKETS",
    "Event",
    "Histogram",
    "MetricsRegistry",
    "PROFILE_SCHEMA",
    "PoolRebuild",
    "Profiler",
    "Tracer",
    "WorkerRetry",
    "build_metrics",
    "build_search_metrics",
    "build_serve_metrics",
    "chrome_trace",
    "cycle_accounting",
    "identify",
    "load_artifact",
    "occupancy_intervals",
    "prof",
    "run_metadata",
    "summarize_artifact",
    "validate_artifact",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics_snapshot",
]
