"""Operation execution — the one code path served and offline requests share.

Each ``execute_*`` function runs one protocol operation through the
exact public offline pipeline (:func:`repro.compile_program` →
:func:`repro.profile_program` → :func:`repro.synthesize_layout`) and
splits the outcome into:

* ``result`` — the deterministic payload. Bit-identical for the same
  request whether it runs offline, against a cold daemon, a warm daemon,
  or a daemon restarted from its persistent cache. This is the contract
  the serve tests and the CI smoke job enforce with a byte comparison.
* ``telemetry`` — wall-clock and cache accounting, explicitly outside
  the determinism contract.

Determinism against a warm cache holds because served synthesize
requests force ``AnnealConfig.budget_charges_hits``: the evaluation
budget charges per *request* rather than per real simulation, so a warm
cache cannot stretch the search past the trajectory of the cold run —
it only makes the same trajectory cheaper.

The compiled-program and profile memos (:class:`ProgramMemo`) are
deterministic pure-function caches, so sharing them across requests is
free of semantic risk; they exist because the ROADMAP's motivating
complaint is that every invocation recompiles and re-profiles from
scratch.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..core import (
    SynthesisOptions,
    compile_program,
    profile_program,
    synthesize_layout,
)
from ..obs import prof
from ..schedule.anneal import AnnealConfig, SearchCancelled
from ..schedule.layout import Layout
from ..search.cache import SimCache
from ..search.evaluator import SerialEvaluator
from .protocol import (
    SYNTHESIS_FORMAT,
    ProtocolError,
    context_key,
)

_P_SERVE = {
    op: prof.intern_phase(f"serve.{op}")
    for op in ("compile", "profile", "synthesize", "simulate")
}


@contextmanager
def _request_trace(params: Dict[str, object], op: str):
    """Profiler scope of one served request.

    Wraps the request body in a ``serve.<op>`` phase and captures the
    span slice the worker thread closes inside it (``reset=True`` so a
    pooled thread's buffer never leaks across requests). Yields a dict
    that, when the client sent a ``trace_id``, is filled *after* the body
    with the trace echo — ``trace_id``, a fresh ``span_id``, and the
    captured spans — for the caller to attach to telemetry. Results are
    untouched: the echo rides in telemetry only, which is explicitly
    outside the determinism contract.
    """
    trace_id = params.get("trace_id")
    if trace_id is not None and not isinstance(trace_id, str):
        raise ProtocolError("'trace_id' must be a string")
    trace: Dict[str, object] = {}
    with prof.collect_spans(reset=True) as spans:
        with prof.phase(_P_SERVE[op]):
            yield trace
    if trace_id is not None:
        trace["trace_id"] = trace_id
        trace["span_id"] = os.urandom(8).hex()
        trace["spans"] = spans


def _check_cancel(cancel, where: str) -> None:
    """Cooperative cancellation point between pipeline stages.

    ``cancel`` is anything with ``is_set()`` (a ``threading.Event`` in
    the daemon); raising :class:`SearchCancelled` here releases the
    worker thread back to the pool instead of computing an answer nobody
    is waiting for. Cancellation can only stop work early — a run it
    does not stop is untouched, so the transparency contract holds.
    """
    if cancel is not None and cancel.is_set():
        raise SearchCancelled(f"request cancelled before {where}")


def _require(params: Dict[str, object], name: str, kind, what: str):
    value = params.get(name)
    if not isinstance(value, kind):
        raise ProtocolError(f"'{name}' must be {what}")
    return value


def _string_list(params: Dict[str, object], name: str) -> Tuple[str, ...]:
    value = params.get(name, [])
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ProtocolError(f"'{name}' must be a list of strings")
    return tuple(value)


@dataclass(frozen=True)
class ProgramSpec:
    """The simulation context every operation names: one program + one
    profiling workload."""

    source: str
    filename: str
    args: Tuple[str, ...]
    optimize: bool

    @staticmethod
    def parse(params: Dict[str, object]) -> "ProgramSpec":
        return ProgramSpec(
            source=_require(params, "source", str, "the program source text"),
            filename=str(params.get("filename", "<request>")),
            args=_string_list(params, "args"),
            optimize=bool(params.get("optimize", False)),
        )

    def context(self) -> str:
        return context_key(self.source, self.args, self.optimize)

    def canonical(self) -> Dict[str, object]:
        """The deterministic identity of the context (``filename`` only
        flavors error messages, so it is deliberately excluded)."""
        return {
            "source_sha256": hashlib.sha256(
                self.source.encode("utf-8")
            ).hexdigest(),
            "args": list(self.args),
            "optimize": self.optimize,
        }


@dataclass(frozen=True)
class SynthesizeSpec:
    """One synthesize request: context + cores + the search schedule."""

    program: ProgramSpec
    cores: int
    seed: int
    mesh_width: Optional[int]
    hints: Optional[Tuple[Tuple[str, str], ...]]
    max_iterations: Optional[int]
    max_evaluations: Optional[int]

    @staticmethod
    def parse(params: Dict[str, object]) -> "SynthesizeSpec":
        program = ProgramSpec.parse(params)
        cores = _require(params, "cores", int, "a positive core count")
        if isinstance(cores, bool) or cores < 1:
            raise ProtocolError("'cores' must be a positive core count")
        hints = params.get("hints")
        if hints is not None:
            if not isinstance(hints, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in hints.items()
            ):
                raise ProtocolError("'hints' must map task names to policies")
            hints = tuple(sorted(hints.items()))
        for name in ("seed", "mesh_width", "max_iterations", "max_evaluations"):
            value = params.get(name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int)
            ):
                raise ProtocolError(f"'{name}' must be an integer")
        return SynthesizeSpec(
            program=program,
            cores=cores,
            seed=int(params.get("seed", 0) or 0),
            mesh_width=params.get("mesh_width"),
            hints=hints,
            max_iterations=params.get("max_iterations"),
            max_evaluations=params.get("max_evaluations"),
        )

    def canonical(self) -> Dict[str, object]:
        return {
            **self.program.canonical(),
            "cores": self.cores,
            "seed": self.seed,
            "mesh_width": self.mesh_width,
            "hints": [list(item) for item in self.hints or []],
            "max_iterations": self.max_iterations,
            "max_evaluations": self.max_evaluations,
        }

    def anneal_config(self) -> AnnealConfig:
        config = AnnealConfig(seed=self.seed, budget_charges_hits=True)
        if self.max_iterations is not None:
            config.max_iterations = self.max_iterations
        if self.max_evaluations is not None:
            config.max_evaluations = self.max_evaluations
        return config


@dataclass(frozen=True)
class SimulateSpec:
    """One simulate request: context + an explicit layout to score."""

    program: ProgramSpec
    cores: int
    mesh_width: Optional[int]
    mapping: Tuple[Tuple[str, Tuple[int, ...]], ...]
    hints: Optional[Tuple[Tuple[str, str], ...]]

    @staticmethod
    def parse(params: Dict[str, object]) -> "SimulateSpec":
        program = ProgramSpec.parse(params)
        cores = _require(params, "cores", int, "a positive core count")
        if isinstance(cores, bool) or cores < 1:
            raise ProtocolError("'cores' must be a positive core count")
        layout = params.get("layout")
        if not isinstance(layout, dict) or not layout:
            raise ProtocolError(
                "'layout' must map task names to lists of core ids"
            )
        mapping = []
        for task, task_cores in sorted(layout.items()):
            if not isinstance(task, str) or not isinstance(
                task_cores, (list, tuple)
            ) or not all(
                isinstance(c, int) and not isinstance(c, bool)
                for c in task_cores
            ):
                raise ProtocolError(
                    "'layout' must map task names to lists of core ids"
                )
            mapping.append((task, tuple(task_cores)))
        hints = params.get("hints")
        if hints is not None:
            if not isinstance(hints, dict):
                raise ProtocolError("'hints' must map task names to policies")
            hints = tuple(sorted(hints.items()))
        mesh_width = params.get("mesh_width")
        if mesh_width is not None and (
            isinstance(mesh_width, bool) or not isinstance(mesh_width, int)
        ):
            raise ProtocolError("'mesh_width' must be an integer")
        return SimulateSpec(
            program=program,
            cores=cores,
            mesh_width=mesh_width,
            mapping=tuple(mapping),
            hints=hints,
        )

    def canonical(self) -> Dict[str, object]:
        return {
            **self.program.canonical(),
            "cores": self.cores,
            "mesh_width": self.mesh_width,
            "layout": {task: list(cores) for task, cores in self.mapping},
            "hints": [list(item) for item in self.hints or []],
        }


# -- pure-function memos -------------------------------------------------------


class ProgramMemo:
    """Cross-request memo of compiled programs and bootstrap profiles.

    Both are deterministic functions of their keys, so the memo is
    semantically invisible; it removes the recompile/re-profile tax every
    offline invocation pays. Thread-safe: compilation runs outside the
    lock (two racing threads may both compile, one result wins — cheaper
    than serializing every compile behind one lock).
    """

    def __init__(self):
        self._compiled: Dict[Tuple[str, bool], object] = {}
        self._profiles: Dict[Tuple[str, Tuple[str, ...], bool], object] = {}
        self._lock = threading.Lock()
        self.compile_hits = 0
        self.compile_misses = 0
        self.profile_hits = 0
        self.profile_misses = 0

    def _source_key(self, spec: ProgramSpec) -> str:
        return hashlib.sha256(spec.source.encode("utf-8")).hexdigest()

    def compiled(self, spec: ProgramSpec):
        key = (self._source_key(spec), spec.optimize)
        with self._lock:
            cached = self._compiled.get(key)
            if cached is not None:
                self.compile_hits += 1
                return cached
            self.compile_misses += 1
        compiled = compile_program(
            spec.source, spec.filename, optimize=spec.optimize
        )
        with self._lock:
            return self._compiled.setdefault(key, compiled)

    def profile(self, spec: ProgramSpec):
        key = (self._source_key(spec), spec.args, spec.optimize)
        with self._lock:
            cached = self._profiles.get(key)
            if cached is not None:
                self.profile_hits += 1
                return cached
            self.profile_misses += 1
        profile = profile_program(self.compiled(spec), spec.args)
        with self._lock:
            return self._profiles.setdefault(key, profile)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "compiled": len(self._compiled),
                "profiles": len(self._profiles),
                "compile_hits": self.compile_hits,
                "compile_misses": self.compile_misses,
                "profile_hits": self.profile_hits,
                "profile_misses": self.profile_misses,
            }


# -- operations ----------------------------------------------------------------


def execute_compile(
    params: Dict[str, object],
    memo: Optional[ProgramMemo] = None,
    cancel=None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    spec = ProgramSpec.parse(params)
    memo = memo or ProgramMemo()
    started = _time.perf_counter()
    with _request_trace(params, "compile") as trace:
        _check_cancel(cancel, "compile")
        compiled = memo.compiled(spec)
    result = {
        "tasks": compiled.task_names(),
        "classes": sorted(compiled.info.classes),
        "context": spec.context(),
    }
    telemetry: Dict[str, object] = {
        "wall_seconds": _time.perf_counter() - started
    }
    if trace:
        telemetry["trace"] = trace
    return result, telemetry


def execute_profile(
    params: Dict[str, object],
    memo: Optional[ProgramMemo] = None,
    cancel=None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    spec = ProgramSpec.parse(params)
    memo = memo or ProgramMemo()
    started = _time.perf_counter()
    with _request_trace(params, "profile") as trace:
        _check_cancel(cancel, "profile")
        profile = memo.profile(spec)
    result = {
        "context": spec.context(),
        "run_cycles": profile.run_cycles,
        "tasks": {
            task: {"invocations": stats.invocations}
            for task, stats in sorted(profile.tasks.items())
        },
    }
    telemetry: Dict[str, object] = {
        "wall_seconds": _time.perf_counter() - started
    }
    if trace:
        telemetry["trace"] = trace
    return result, telemetry


def execute_synthesize(
    params: Dict[str, object],
    memo: Optional[ProgramMemo] = None,
    cache: Optional[SimCache] = None,
    workers: int = 1,
    cancel=None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Runs one synthesize request through the offline pipeline.

    ``cache``/``workers`` never change the result — the former by the
    SimCache transparency + request-charged budget, the latter by the
    :mod:`repro.search` batch contract — so the daemon passes its shared
    persistent cache and its configured worker pool here while the
    offline comparator passes neither. ``cancel`` (anything with
    ``is_set()``) is polled between pipeline stages and at every search
    iteration boundary; setting it raises :class:`SearchCancelled` and
    reclaims the thread.
    """
    spec = SynthesizeSpec.parse(params)
    memo = memo or ProgramMemo()
    started = _time.perf_counter()
    with _request_trace(params, "synthesize") as trace:
        _check_cancel(cancel, "compile")
        compiled = memo.compiled(spec.program)
        _check_cancel(cancel, "profile")
        profile = memo.profile(spec.program)
        report = synthesize_layout(
            compiled,
            profile,
            spec.cores,
            options=SynthesisOptions(
                anneal=spec.anneal_config(),
                hints=dict(spec.hints) if spec.hints else None,
                mesh_width=spec.mesh_width,
                workers=workers,
                cache=cache,
                cancel_check=cancel.is_set if cancel is not None else None,
            ),
        )
    layout = report.layout
    result = {
        "format": SYNTHESIS_FORMAT,
        "request": spec.canonical(),
        "layout": {task: list(cores) for task, cores in layout.instances},
        "num_cores": layout.num_cores,
        "mesh_width": layout.mesh_width,
        "topology": layout.topology,
        "estimated_cycles": report.estimated_cycles,
        "iterations": report.iterations,
        "history": report.history,
        # Requests (simulations + hits) are cache-state independent under
        # the request-charged budget, so this is a deterministic field;
        # the hit/miss split is not, and lives in telemetry.
        "requested_evaluations": report.requested_evaluations,
    }
    telemetry = {
        "wall_seconds": _time.perf_counter() - started,
        "evaluations": report.evaluations,
        "cache_hits": report.cache_hits,
    }
    if trace:
        telemetry["trace"] = trace
    return result, telemetry


def execute_simulate(
    params: Dict[str, object],
    memo: Optional[ProgramMemo] = None,
    cache: Optional[SimCache] = None,
    cancel=None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Scores one explicit layout (sharing the context's SimCache, so a
    layout the search already visited is answered without simulating)."""
    spec = SimulateSpec.parse(params)
    memo = memo or ProgramMemo()
    started = _time.perf_counter()
    with _request_trace(params, "simulate") as trace:
        _check_cancel(cancel, "compile")
        compiled = memo.compiled(spec.program)
        _check_cancel(cancel, "profile")
        profile = memo.profile(spec.program)
        layout = Layout.make(
            spec.cores,
            {task: list(cores) for task, cores in spec.mapping},
            mesh_width=spec.mesh_width,
        )
        layout.validate(compiled.info)
        evaluator = SerialEvaluator(
            compiled,
            profile,
            hints=dict(spec.hints) if spec.hints else None,
            cache=cache,
        )
        _check_cancel(cancel, "simulate")
        outcome = evaluator.evaluate([layout])
    scored = outcome.scored[0]
    result = {
        "request": spec.canonical(),
        "cycles": scored.cycles,
        "finished": scored.result.finished,
        "utilization": scored.result.utilization,
        "invocations": dict(sorted(scored.result.invocations.items())),
    }
    telemetry = {
        "wall_seconds": _time.perf_counter() - started,
        "cache_hits": outcome.cache_hits,
        "evaluations": outcome.simulations,
    }
    if trace:
        telemetry["trace"] = trace
    return result, telemetry
