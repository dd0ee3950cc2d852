"""Simulation memoization for the layout search (:mod:`repro.search`).

The DSA loop re-visits layouts constantly — kept candidates are re-scored
every iteration, random restarts regenerate earlier layouts, and field
re-optimization re-synthesizes against similar profiles. Each visit costs
a full scheduling simulation. :class:`SimCache` memoizes ``SimResult``s
keyed by the exact layout fingerprint
(:func:`repro.schedule.layout.layout_fingerprint`, with the evaluator's
hints appended when there are any), so a layout is
simulated at most once per (profile, hints, speeds) context — across
iterations, across restarts, and (when one cache instance is shared)
across whole synthesis runs.

Each entry has one *derived* slot beside it, for a value computed from
the entry alone: the annealer keeps there the critical-path neighbours it
built from that result (paper §4.5.1-§4.5.2), so a search that keeps a
cached layout again replays them instead of recomputing them. A slot
lives exactly as long as its entry — eviction, a ``put`` that replaces
the entry, :meth:`SimCache.clear` and :meth:`SimCache.restore` drop it —
and :meth:`SimCache.state` never includes it, so a snapshot, a checkpoint
or the serve store's file holds only simulations.

Hit / miss / eviction counts live here and nowhere else: exporters read
them through :meth:`cache_stats` (the ``sim_cache`` block of the search
metrics, the serve daemon's ``sim_cache_*`` counters).

The cache is safe for concurrent use: one :mod:`repro.serve` daemon
shares an instance across request-handler threads, so every LRU mutation
and counter update happens under one lock, and :meth:`cache_stats` takes
its whole snapshot inside it — a reader never observes a half-applied
update (e.g. a hit counted but the entry not yet moved to the LRU tail).
The single-threaded anneal loop pays only an uncontended-lock acquire
per lookup.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..schedule.simulator import SimResult


@dataclass
class CacheEntry:
    """One memoized simulation outcome."""

    cycles: int
    result: "SimResult"


class SimCache:
    """An LRU-bounded memo of layout-fingerprint → simulation outcome."""

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive or None")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: fingerprint -> the value derived from its entry (see the module
        #: docstring); a key here always has an entry
        self._derived: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: ``put`` calls on this instance, outside :meth:`state`: the
        #: serve store compares it at each flush check to notice inserts
        self.inserts = 0
        #: guards the LRU order and the counters
        self._lock = threading.Lock()

    # -- the memo ------------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[CacheEntry]:
        """Returns the entry for ``fingerprint``, else ``None`` (a miss)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            return entry

    def put(self, fingerprint: str, entry: CacheEntry) -> None:
        with self._lock:
            self.inserts += 1
            self._entries[fingerprint] = entry
            self._entries.move_to_end(fingerprint)
            self._derived.pop(fingerprint, None)
            self._trim()

    def _trim(self) -> None:
        """Lock held. Evicts least-recently-used entries down to the bound."""
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                fingerprint, _ = self._entries.popitem(last=False)
                self._derived.pop(fingerprint, None)
                self.evictions += 1

    def derived(self, fingerprint: str) -> Optional[Any]:
        """The value derived from ``fingerprint``'s entry, else ``None``.
        Neither a hit nor a miss: the lookup counters describe
        simulations only."""
        with self._lock:
            return self._derived.get(fingerprint)

    def set_derived(self, fingerprint: str, value: Any) -> None:
        """Keeps ``value`` beside ``fingerprint``'s entry; a no-op once
        that entry is gone, so no slot outlives its entry."""
        with self._lock:
            if fingerprint in self._entries:
                self._derived[fingerprint] = value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._derived.clear()

    # -- checkpoint support --------------------------------------------------

    def state(self) -> Dict[str, object]:
        """A restorable snapshot of the cache: entries (in LRU order) plus
        every counter. Derived slots are left out.

        Entries are shared by reference — ``put`` replaces entry objects
        and never mutates them, so a snapshot taken at an iteration
        boundary stays valid even while the search keeps inserting. The
        annealer captures one per boundary so an interrupt mid-iteration
        can checkpoint the boundary state, not the half-mutated one.
        """
        with self._lock:
            return {
                "entries": list(self._entries.items()),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def restore(self, state: Dict[str, object]) -> None:
        """Restores a :meth:`state` snapshot, counters included, so a
        resumed search reports bit-identical cache statistics.

        A snapshot taken under a larger bound (or none) is trimmed to
        this cache's ``max_entries``, least recently used first, and the
        trimmed entries count as evictions. Every derived slot is dropped.
        """
        with self._lock:
            self._entries = OrderedDict(state["entries"])
            self._derived = {}
            self.hits = state["hits"]
            self.misses = state["misses"]
            self.evictions = state["evictions"]
            self._trim()

    # -- reporting -----------------------------------------------------------

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def cache_stats(self) -> Dict[str, object]:
        """A JSON-ready snapshot of the cache counters, taken atomically.

        The whole snapshot is read under the cache lock, so it is
        internally consistent even while other threads are hitting the
        cache: ``lookups == hits + misses`` holds in every snapshot, never
        just between updates.
        """
        with self._lock:
            hits, misses = self.hits, self.misses
            lookups = hits + misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "lookups": lookups,
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
                "hit_rate": hits / lookups if lookups else 0.0,
            }
