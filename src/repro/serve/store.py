"""The disk-persistent, cross-request simulation cache.

One :class:`SimCacheStore` holds a family of
:class:`repro.search.SimCache` instances, one per *simulation context*
(:func:`repro.serve.protocol.context_key` — program source, profiling
arguments, optimize flag), because a layout fingerprint only identifies
a simulation outcome within one context. Request handlers share cache
instances, so all mutation safety comes from the SimCache's own lock;
the store's lock only guards the context map.

Persistence (``repro.serve/simcache-v1``)
-----------------------------------------

The store is **write-behind**: every insert lands in memory first, and a
flush serializes all contexts into one record via
:mod:`repro.search.storage` — the same atomic-write (tmp + fsync +
rename + dir-fsync) + sha256-digest machinery search checkpoints use, so
a crash mid-flush leaves the previous cache file intact and truncation
is detected on load. On startup the whole file is restored, so a
restarted daemon answers repeated synthesize requests from a warm cache.

A corrupted, truncated, or foreign cache file is **refused with a clear
error** (never half-loaded): the load report carries the diagnostic, the
offending file is preserved under ``<path>.corrupt`` for inspection, and
the daemon starts with a fresh cache — losing a cache is a performance
event, not a correctness event, because the SimCache is semantically
transparent.

The quarantine itself is bounded: the newest refused file sits at
``<path>.corrupt``, older ones rotate to ``<path>.corrupt.1``,
``.corrupt.2``, … up to ``max_quarantine`` total, and anything beyond
that is deleted (counted as ``serve_quarantine_evictions`` in the serve
metrics). Without the bound, a daemon restart-looping against a bad disk
would mint one orphan file per restart, forever.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..search.cache import SimCache
from ..search.storage import (
    StorageError,
    read_pickle_record,
    write_pickle_record,
)

SIMCACHE_FORMAT = "repro.serve/simcache-v1"


@dataclass
class StoreLoadReport:
    """What happened when the store read its file at startup."""

    path: Optional[str]
    #: a previous cache file was restored
    loaded: bool = False
    #: a file existed but was refused (corrupt/foreign); see ``error``
    refused: bool = False
    error: Optional[str] = None
    #: where a refused file was preserved for inspection
    quarantined_to: Optional[str] = None
    contexts: int = 0
    entries: int = 0

    def describe(self) -> str:
        if self.path is None:
            return "simcache persistence off (no --cache path)"
        if self.refused:
            return (
                f"refused existing cache file: {self.error} "
                f"(preserved at {self.quarantined_to}; starting fresh)"
            )
        if self.loaded:
            return (
                f"warm cache: {self.entries} entries across "
                f"{self.contexts} contexts from {self.path}"
            )
        return f"cold cache: no file at {self.path} yet"


class SimCacheStore:
    """A persistent, shared, per-context family of simulation caches."""

    def __init__(
        self,
        path: Optional[str] = None,
        max_entries: Optional[int] = None,
        registry=None,
        max_quarantine: int = 3,
    ):
        self.path = path
        #: LRU bound applied to every per-context cache (None = unbounded)
        self.max_entries = max_entries
        #: receives the ``sim_cache_*`` counters of every context cache
        self.registry = registry
        #: refused cache files kept for inspection (newest first);
        #: the rotation evicts anything older
        self.max_quarantine = max(1, max_quarantine)
        #: quarantined files deleted by the rotation bound, lifetime
        self.quarantine_evictions = 0
        self._caches: Dict[str, SimCache] = {}
        self._lock = threading.RLock()
        self._dirty = False
        self.flushes = 0
        #: fault point: the next N flushes raise StorageError instead of
        #: writing (armed by the net-chaos harness and the ``inject`` op;
        #: never set in normal operation)
        self.fail_flushes = 0

    # -- the context map -----------------------------------------------------

    def cache_for(self, context: str) -> SimCache:
        """The shared cache of one simulation context (get-or-create)."""
        with self._lock:
            cache = self._caches.get(context)
            if cache is None:
                cache = SimCache(
                    max_entries=self.max_entries, registry=self.registry
                )
                self._caches[context] = cache
            return cache

    # -- write-behind dirtiness ----------------------------------------------

    def mark_dirty(self) -> None:
        with self._lock:
            self._dirty = True

    @property
    def dirty(self) -> bool:
        with self._lock:
            return self._dirty

    # -- persistence ---------------------------------------------------------

    def load(self) -> StoreLoadReport:
        """Restores a previously flushed store, refusing damaged files."""
        report = StoreLoadReport(path=self.path)
        if self.path is None or not os.path.exists(self.path):
            return report
        try:
            header, payload = read_pickle_record(
                self.path,
                SIMCACHE_FORMAT,
                expected_type=dict,
                kind="simcache",
                long_kind="persistent simulation cache",
            )
        except StorageError as exc:
            report.refused = True
            report.error = str(exc)
            report.quarantined_to = self._quarantine()
            return report
        with self._lock:
            for context, state in payload.get("contexts", {}).items():
                # Restore before attaching the registry: the persisted
                # counter totals describe past runs and must not replay
                # into this daemon's fresh serve metrics.
                cache = SimCache(max_entries=self.max_entries)
                cache.restore(state)
                cache.registry = self.registry
                self._caches[context] = cache
            report.loaded = True
            report.contexts = len(self._caches)
            report.entries = sum(len(c) for c in self._caches.values())
        return report

    def _quarantine_name(self, index: int) -> str:
        suffix = ".corrupt" if index == 0 else f".corrupt.{index}"
        return self.path + suffix

    def _quarantine(self) -> Optional[str]:
        """Moves the refused cache file into the bounded quarantine
        rotation; returns where it landed (the newest slot)."""
        oldest = self._quarantine_name(self.max_quarantine - 1)
        if os.path.exists(oldest):
            try:
                os.remove(oldest)
                self.quarantine_evictions += 1
                if self.registry is not None:
                    self.registry.counter("serve_quarantine_evictions").inc()
            except OSError:  # pragma: no cover - racing deletion
                pass
        for index in range(self.max_quarantine - 1, 0, -1):
            older = self._quarantine_name(index - 1)
            if os.path.exists(older):
                try:
                    os.replace(older, self._quarantine_name(index))
                except OSError:  # pragma: no cover - racing deletion
                    pass
        target = self._quarantine_name(0)
        try:
            os.replace(self.path, target)
        except OSError:  # pragma: no cover - racing deletion
            return None
        return target

    def flush(self) -> Optional[Dict[str, object]]:
        """Atomically writes every context's snapshot; returns the record
        header (None when persistence is off). Clears the dirty flag
        before snapshotting, so an insert racing the flush re-dirties the
        store and is picked up by the next write-behind cycle."""
        if self.path is None:
            return None
        with self._lock:
            if self.fail_flushes > 0:
                self.fail_flushes -= 1
                # Leave the store dirty: the failed write persisted
                # nothing, so the next cycle must try again.
                raise StorageError(
                    "injected flush failure (store fault point)"
                )
            self._dirty = False
            caches = dict(self._caches)
        contexts = {
            context: cache.state() for context, cache in caches.items()
        }
        header = write_pickle_record(
            self.path,
            SIMCACHE_FORMAT,
            {"contexts": contexts},
            extra_header={
                "contexts": len(contexts),
                "entries": sum(len(s["entries"]) for s in contexts.values()),
            },
        )
        with self._lock:
            self.flushes += 1
        return header

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """A JSON-ready snapshot of the store and its context caches."""
        with self._lock:
            return {
                "path": self.path,
                "contexts": len(self._caches),
                "entries": sum(len(c) for c in self._caches.values()),
                "max_entries_per_context": self.max_entries,
                "dirty": self._dirty,
                "flushes": self.flushes,
                "max_quarantine": self.max_quarantine,
                "quarantine_evictions": self.quarantine_evictions,
                "per_context": {
                    context: cache.cache_stats()
                    for context, cache in sorted(self._caches.items())
                },
            }
