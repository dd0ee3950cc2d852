"""Helpers shared by the three workloads: statistics, the output oracle,
the exact-count record, provenance, and the per-run outcome."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "expected_stdout.json")

#: the six programs of the paper's evaluation, in Figure 7 order
PROGRAMS = ("Tracking", "KMeans", "MonteCarlo", "FilterBank", "Fractal", "Series")


# -- statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail_percentile(values: Sequence[float], pct: int = 90) -> Optional[float]:
    """Nearest-rank ``pct``-th percentile, or None unless at least ten
    samples lie beyond it (the highest percentile worth reporting)."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- output oracle -------------------------------------------------------------


def load_digests() -> Dict[str, Dict[str, object]]:
    """Expected stdout per program at ``Input_original`` (see oracle.py)."""
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)["programs"]


# -- run outcome ---------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured, checked and counted."""

    #: end-to-end metric name -> value (units are in BENCHMARK.json)
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: why ops failed, one line each (printed to stderr)
    failures: List[str] = field(default_factory=list)
    #: hardware-independent counts and simulated results; must repeat
    #: exactly for one seed (checked against the run record)
    counts: Dict[str, object] = field(default_factory=dict)
    #: wall time of the timed rounds, for the traced-minus-untraced report
    wall_s: float = 0.0
    #: extra per-layer values the workload measured itself (traced runs)
    layer: Dict[str, float] = field(default_factory=dict)
    #: how the timed wall splits, when the workload measures it itself
    #: rather than through in-process spans (label -> seconds)
    attribution: Dict[str, float] = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)


def tree_digest(*roots: str) -> str:
    """sha256 over the Python sources under ``roots``: runs compare counts
    only with earlier runs of the same code."""
    digest = hashlib.sha256()
    for root in roots:
        for folder, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith((".py", ".bam", ".json")):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


class RunRecord:
    """Counts of earlier runs of one workload and seed of this code.

    The first run of a seed writes the record; every later run, traced or
    not, must report identical values for every key both have seen. A
    difference means either nondeterminism or a trace that changed
    behaviour, and fails the run."""

    def __init__(self, path: str):
        self.path = path
        self.data: Dict[str, object] = {"counts": {}, "walls": {}}
        if os.path.exists(path):
            with open(path) as handle:
                self.data = json.load(handle)

    def check(self, counts: Dict[str, object]) -> List[str]:
        """Names whose value differs from the record; records new ones."""
        # A JSON round trip makes tuples and int keys compare as stored.
        fresh = json.loads(json.dumps(counts, sort_keys=True))
        known = self.data["counts"]
        mismatched = sorted(
            name for name, value in fresh.items()
            if name in known and known[name] != value
        )
        for name, value in fresh.items():
            known.setdefault(name, value)
        return mismatched

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self.data, handle, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


# -- provenance ----------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def loadavg() -> List[float]:
    return list(os.getloadavg())


def add_search_counts(layer: Dict[str, float], report) -> None:
    """Adds the search-layer counts a synthesis report carries (available
    to traced and untraced runs alike)."""
    supervision = report.search_metrics.get("supervision") or {}
    for key, value in (
        ("search.simulations", report.evaluations),
        ("search.requests", report.requested_evaluations),
        ("search.cache_hits", report.cache_hits),
        (
            "search.retries",
            sum(
                int(supervision.get(name, 0))
                for name in ("worker_retries", "pool_rebuilds", "serial_fallbacks")
            ),
        ),
    ):
        layer[key] = layer.get(key, 0) + value
