"""Hierarchical wall-clock profiler for the synthesis hot path.

Everything else in :mod:`repro.obs` measures *simulated cycles*; this
module measures where real wall-clock time goes, so the ROADMAP's perf
work (event-loop flattening, pool dispatch) has
a ranked table to aim at instead of guesswork.

Design constraints, in order:

1. **Off means off.** The profiler is a process-global that is ``None``
   by default. Every instrumentation site guards on one attribute load
   (:func:`active`); with no profiler installed the hot path executes
   zero extra bytecode beyond that check, and results are bit-identical
   to an uninstrumented build (test-enforced, same contract as the
   observe/fault/resilience off-modes).
2. **Cheap when on.** Phase names are interned to small integers once at
   import time (:func:`intern_phase`); entering a phase is two list
   appends and a dict probe on pre-built per-thread arrays — no tuple
   keys, no string hashing, no allocation proportional to depth.
3. **Thread-safe by construction.** Each thread accumulates into its own
   node arrays (no locks on the hot path); :meth:`Profiler.snapshot`
   merges the per-thread trees by phase-name path.

The data model is a tree of *phase nodes*. A node accumulates
``count`` (times entered), ``total_ns`` (wall clock inside the phase,
children included) and ``self_ns`` (wall clock minus in-thread
children). Externally measured time — the simulator's event loop, timed
once per run, and worker-process compute reported over IPC — is
attached with :meth:`Profiler.add_time`: *exclusive* buckets were
measured inside the parent's wall and are subtracted from its self
time; *non-exclusive* buckets (cross-process compute) overlap the
parent's wait and leave its self time alone, which is exactly what
makes ``search.dispatch`` self time ≈ IPC overhead.

Snapshots serialize as ``repro.obs/profile-v1`` and render as a
self/cumulative table (:func:`render_report`). With ``record_spans``
on, every closed phase also records a bounded ``(name, start, dur)``
span; :func:`span_trace_events` turns those into a wall-clock track for
the Chrome-trace exporter, and :func:`build_request_trace` merges a
client span with the server-side spans echoed in serve telemetry into
one Perfetto-loadable document per ``trace_id``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

PROFILE_SCHEMA = "repro.obs/profile-v1"
TRACE_SCHEMA = "repro.obs/chrome-trace-v1"

# -- phase-name interning ----------------------------------------------------

_intern_lock = threading.Lock()
_names: List[str] = []
_keys: Dict[str, int] = {}


def intern_phase(name: str) -> int:
    """Returns the stable small-integer key for a phase name.

    Call once at import time and pass the key to :func:`phase` /
    :meth:`Profiler.add_time` so the hot path never hashes strings.
    """
    with _intern_lock:
        key = _keys.get(name)
        if key is None:
            key = len(_names)
            _names.append(name)
            _keys[name] = key
        return key


# -- per-thread accumulation -------------------------------------------------


class _ThreadState:
    """One thread's phase tree: parallel arrays indexed by node id.

    Node 0 is the implicit root (no phase). ``children[node]`` maps a
    phase key to the child node id, so re-entering a known phase is one
    dict probe with an ``int`` key.
    """

    __slots__ = (
        "thread_name",
        "key",
        "children",
        "count",
        "total_ns",
        "self_ns",
        "stack_node",
        "stack_start",
        "stack_child",
        "counters",
        "spans",
        "spans_dropped",
    )

    def __init__(self, thread_name: str):
        self.thread_name = thread_name
        self.key: List[int] = [-1]
        self.children: List[Dict[int, int]] = [{}]
        self.count: List[int] = [0]
        self.total_ns: List[int] = [0]
        self.self_ns: List[int] = [0]
        self.stack_node: List[int] = [0]
        self.stack_start: List[int] = [0]
        self.stack_child: List[int] = [0]
        self.counters: Dict[int, int] = {}
        # (key, start_ns, dur_ns, depth) per *closed* phase
        self.spans: List[Tuple[int, int, int, int]] = []
        self.spans_dropped = 0

    def _child(self, key: int) -> int:
        cur = self.stack_node[-1]
        node = self.children[cur].get(key)
        if node is None:
            node = len(self.key)
            self.children[cur][key] = node
            self.key.append(key)
            self.children.append({})
            self.count.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return node


class Profiler:
    """A wall-clock phase profiler; install with :func:`install`.

    ``clock`` is injectable (defaults to :func:`time.perf_counter_ns`)
    so tests can assert exact accounting with a fake clock. With
    ``record_spans`` each thread also keeps up to
    ``max_spans_per_thread`` closed spans for trace export; the
    overflow count is reported, never silently dropped.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        record_spans: bool = False,
        max_spans_per_thread: int = 50_000,
    ):
        self._clock = clock
        self.record_spans = record_spans
        self.max_spans_per_thread = max_spans_per_thread
        self._local = threading.local()
        self._states: Dict[int, _ThreadState] = {}
        self._states_lock = threading.Lock()

    # -- hot path ------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            thread = threading.current_thread()
            state = _ThreadState(thread.name)
            with self._states_lock:
                self._states[thread.ident or id(thread)] = state
            self._local.state = state
        return state

    def enter(self, key: int) -> None:
        state = self._state()
        node = state._child(key)
        state.stack_node.append(node)
        state.stack_start.append(self._clock())
        state.stack_child.append(0)

    def exit(self) -> None:
        now = self._clock()
        state = self._state()
        node = state.stack_node.pop()
        start = state.stack_start.pop()
        child_ns = state.stack_child.pop()
        elapsed = now - start
        state.count[node] += 1
        state.total_ns[node] += elapsed
        state.self_ns[node] += elapsed - child_ns
        state.stack_child[-1] += elapsed
        if self.record_spans:
            if len(state.spans) < self.max_spans_per_thread:
                state.spans.append(
                    (state.key[node], start, elapsed, len(state.stack_node) - 1)
                )
            else:
                state.spans_dropped += 1

    def add_time(
        self, key: int, ns: int, count: int = 1, exclusive: bool = True
    ) -> None:
        """Attributes externally measured time to a child of the current
        phase.

        ``exclusive`` time was measured on this thread inside the
        current phase's wall (e.g. ``sim.drain``, the simulator's event
        loop timed by two clock reads) and is subtracted from the
        parent's self time.
        Non-exclusive time overlapped the parent in another process
        (worker compute), so the parent's self time — the wait the
        compute does *not* explain, i.e. IPC — is left alone.
        """
        state = self._state()
        node = state._child(key)
        state.count[node] += count
        state.total_ns[node] += ns
        state.self_ns[node] += ns
        if exclusive:
            state.stack_child[-1] += ns

    def add_count(self, key: int, n: int = 1) -> None:
        """Bumps a named counter (per-thread, merged at snapshot)."""
        state = self._state()
        counters = state.counters
        counters[key] = counters.get(key, 0) + n

    # -- snapshot ------------------------------------------------------------

    def _merged_tree(self) -> Dict[int, dict]:
        with self._states_lock:
            states = list(self._states.values())
        root: Dict[int, dict] = {}

        def fold(state: _ThreadState, node: int, into: Dict[int, dict]) -> None:
            for key, child in state.children[node].items():
                entry = into.get(key)
                if entry is None:
                    entry = {
                        "name": _names[key],
                        "count": 0,
                        "total_ns": 0,
                        "self_ns": 0,
                        "children": {},
                    }
                    into[key] = entry
                entry["count"] += state.count[child]
                entry["total_ns"] += state.total_ns[child]
                entry["self_ns"] += state.self_ns[child]
                fold(state, child, entry["children"])

        for state in states:
            fold(state, 0, root)
        return root

    @staticmethod
    def _finalize(children: Dict[int, dict]) -> List[dict]:
        out = []
        for entry in children.values():
            entry = dict(entry)
            entry["children"] = Profiler._finalize(entry["children"])
            out.append(entry)
        out.sort(key=lambda e: (-e["total_ns"], e["name"]))
        return out

    def snapshot(
        self,
        wall_ns: Optional[int] = None,
        meta: Optional[dict] = None,
        extra: Optional[dict] = None,
    ) -> dict:
        """The mergeable ``repro.obs/profile-v1`` document.

        Only *closed* phases are included: a snapshot taken while other
        threads are mid-phase (the ``/profilez`` endpoint) reflects work
        committed so far, never a torn frame.
        """
        with self._states_lock:
            states = list(self._states.values())
        counters: Dict[str, int] = {}
        recorded = 0
        dropped = 0
        for state in states:
            for key, value in state.counters.items():
                name = _names[key]
                counters[name] = counters.get(name, 0) + value
            recorded += len(state.spans)
            dropped += state.spans_dropped
        doc = {
            "schema": PROFILE_SCHEMA,
            "wall_ns": wall_ns,
            "phases": self._finalize(self._merged_tree()),
            "counters": dict(sorted(counters.items())),
            "threads": len(states),
            "spans_recorded": recorded,
            "spans_dropped": dropped,
        }
        if meta is not None:
            doc["meta"] = meta
        if extra:
            doc.update(extra)
        return doc

    # -- span export ---------------------------------------------------------

    def thread_spans(self) -> Dict[str, List[dict]]:
        """All recorded spans, per thread, as JSON-ready dicts."""
        with self._states_lock:
            states = list(self._states.values())
        out: Dict[str, List[dict]] = {}
        for index, state in enumerate(states):
            label = f"{state.thread_name}#{index}"
            out[label] = span_dicts(state.spans)
        return out


def span_dicts(
    spans: Iterable[Tuple[int, int, int, int]], base_ns: Optional[int] = None
) -> List[dict]:
    """Raw span tuples -> JSON-ready dicts (ns, relative to ``base_ns``)."""
    spans = list(spans)
    if base_ns is None:
        base_ns = min((s[1] for s in spans), default=0)
    return [
        {
            "name": _names[key],
            "start_ns": start - base_ns,
            "dur_ns": dur,
            "depth": depth,
        }
        for key, start, dur, depth in spans
    ]


# -- the process-global ------------------------------------------------------

_ACTIVE: Optional[Profiler] = None


def install(profiler: Profiler) -> Optional[Profiler]:
    """Makes ``profiler`` the process-global; returns the previous one
    so callers can restore it (servers in tests nest)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = profiler
    return previous


def uninstall(previous: Optional[Profiler] = None) -> None:
    global _ACTIVE
    _ACTIVE = previous


def active() -> Optional[Profiler]:
    return _ACTIVE


@contextmanager
def profiled(
    record_spans: bool = False, clock: Callable[[], int] = time.perf_counter_ns
):
    """Installs a fresh profiler for the dynamic extent of the block."""
    profiler = Profiler(clock=clock, record_spans=record_spans)
    previous = install(profiler)
    try:
        yield profiler
    finally:
        uninstall(previous)


@contextmanager
def phase(key: int):
    """Times one phase of the active profiler; no-op when none is
    installed. ``key`` comes from :func:`intern_phase` (strings are
    accepted for interactive use)."""
    profiler = _ACTIVE
    if profiler is None:
        yield None
        return
    if type(key) is str:
        key = intern_phase(key)
    profiler.enter(key)
    try:
        yield profiler
    finally:
        profiler.exit()


@contextmanager
def collect_spans(reset: bool = False):
    """Captures the current thread's spans closed inside the block.

    The daemon wraps each request body in this (with ``reset=True`` so
    a long-lived worker thread's span buffer never grows across
    requests) and ships the slice back in telemetry.
    """
    out: List[dict] = []
    profiler = _ACTIVE
    if profiler is None or not profiler.record_spans:
        yield out
        return
    state = profiler._state()
    if reset:
        state.spans = []
        state.spans_dropped = 0
    mark = len(state.spans)
    try:
        yield out
    finally:
        out.extend(span_dicts(state.spans[mark:]))


# -- reporting ---------------------------------------------------------------


def flatten(doc: dict) -> List[dict]:
    """Depth-first flat rows (``path``, ``depth``, counters) of a
    profile-v1 document."""
    rows: List[dict] = []

    def walk(nodes: List[dict], prefix: str, depth: int) -> None:
        for node in nodes:
            path = f"{prefix}/{node['name']}" if prefix else node["name"]
            rows.append(
                {
                    "path": path,
                    "name": node["name"],
                    "depth": depth,
                    "count": node["count"],
                    "total_ns": node["total_ns"],
                    "self_ns": node["self_ns"],
                }
            )
            walk(node["children"], path, depth + 1)

    walk(doc.get("phases", []), "", 0)
    return rows


def coverage(doc: dict) -> Optional[float]:
    """Fraction of measured wall explained by top-level phases."""
    wall = doc.get("wall_ns")
    if not wall:
        return None
    return sum(node["total_ns"] for node in doc.get("phases", [])) / wall


def _ms(ns: int) -> str:
    if abs(ns) >= 1_000_000_000:
        return f"{ns / 1e9:9.3f}s "
    return f"{ns / 1e6:9.3f}ms"


def render_report(doc: dict, top: int = 30) -> str:
    """The human-readable self/cumulative table for one profile."""
    lines: List[str] = []
    wall = doc.get("wall_ns")
    head = []
    if wall:
        head.append(f"wall {wall / 1e9:.3f}s")
        cov = coverage(doc)
        if cov is not None:
            head.append(f"top-level coverage {cov:.1%}")
    head.append(f"threads {doc.get('threads', '?')}")
    lines.append("  ".join(head))
    lines.append("")

    rows = flatten(doc)
    lines.append(f"{'total':>11} {'self':>11} {'count':>9}  phase")
    for row in rows:
        indent = "  " * row["depth"]
        lines.append(
            f"{_ms(row['total_ns'])} {_ms(max(0, row['self_ns']))} "
            f"{row['count']:9d}  {indent}{row['name']}"
        )

    hottest = sorted(rows, key=lambda r: -r["self_ns"])[:top]
    if hottest:
        lines.append("")
        lines.append(f"hottest by self time (top {len(hottest)}):")
        for row in hottest:
            share = (
                f" {row['self_ns'] / wall:6.1%}" if wall else ""
            )
            lines.append(
                f"{_ms(max(0, row['self_ns']))}{share}  {row['path']}"
            )

    counters = doc.get("counters") or {}
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"{value:>12}  {name}")
    return "\n".join(lines)


# -- Chrome-trace integration ------------------------------------------------


def span_trace_events(
    profiler: Profiler,
    pid: int = 1000,
    process_name: str = "wall clock (profiler)",
) -> List[dict]:
    """Renders recorded spans as a wall-clock track (timestamps in
    microseconds) for merging into a Chrome-trace document via
    ``chrome_trace(..., extra_events=...)``."""
    per_thread = profiler.thread_spans()
    events: List[dict] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for index, (label, spans) in enumerate(sorted(per_thread.items())):
        if not spans:
            continue
        # The trace validator keys tracks by tid alone, so wall-clock
        # tracks must not collide with machine core ids when merged.
        tid = 10_000 + index
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": label},
            }
        )
        for span in spans:
            events.append(
                {
                    "name": span["name"],
                    "cat": "wallclock",
                    "ph": "X",
                    "ts": span["start_ns"] / 1000.0,
                    "dur": span["dur_ns"] / 1000.0,
                    "pid": pid,
                    "tid": tid,
                    "args": {},
                }
            )
    return events


def build_request_trace(
    trace_id: str,
    client_span: dict,
    server_spans: Sequence[dict],
    server_name: str = "daemon",
) -> dict:
    """Merges one request's client span and server-side spans into a
    single Perfetto-loadable document.

    Client and server clocks are different domains; the server track is
    centered inside the client span (what matters in the timeline is
    the relative width — how much of the client's wait the server's
    pipeline explains)."""
    client_dur = client_span["dur_ns"]
    server_spans = sorted(server_spans, key=lambda s: (s["start_ns"], -s["dur_ns"]))
    if server_spans:
        server_base = min(s["start_ns"] for s in server_spans)
        server_end = max(s["start_ns"] + s["dur_ns"] for s in server_spans)
        server_total = server_end - server_base
    else:
        server_base = server_total = 0
    offset_ns = max(0, (client_dur - server_total) // 2)

    events: List[dict] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": "client"}},
        {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
         "args": {"name": "request"}},
        {"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
         "args": {"name": server_name}},
        {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
         "args": {"name": "pipeline"}},
        {
            "name": client_span.get("name", "client.request"),
            "cat": "wallclock",
            "ph": "X",
            "ts": 0.0,
            "dur": client_dur / 1000.0,
            "pid": 0,
            "tid": 0,
            "args": {"trace_id": trace_id},
        },
    ]
    for span in server_spans:
        events.append(
            {
                "name": span["name"],
                "cat": "wallclock",
                "ph": "X",
                "ts": (span["start_ns"] - server_base + offset_ns) / 1000.0,
                "dur": span["dur_ns"] / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"trace_id": trace_id},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "time_unit": "us",
            "trace_id": trace_id,
            "kind": "request-trace",
        },
    }


def write_json(path: str, doc: dict) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
