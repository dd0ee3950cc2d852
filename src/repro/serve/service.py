"""Operation execution — the one code path served and offline requests share.

:meth:`Request.parse` validates a heavy request once, into its op, its
spec, its ``trace_id`` and its key; the daemon does so before admission
and the offline path (``repro request --offline``) the same way.
:func:`execute` runs the parsed request through the exact public offline
pipeline (:func:`repro.compile_program` → :func:`repro.profile_program`
→ :func:`repro.synthesize_layout`), one row of the op table inside one
envelope, and splits the outcome into:

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

The daemon's :class:`ProgramMemo` keeps three deterministic
pure-function caches: compiled programs, bootstrap profiles and whole
``synthesize`` answers. Sharing them across requests is free of semantic
risk. The first two spare every request the recompile and re-profile an
offline invocation pays; the third answers a repeated ``synthesize``
without replaying its search, because under the request-charged budget
the answer is a function of the canonical request alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time as _time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

from ..core import (
    SynthesisOptions,
    compile_program,
    profile_program,
    synthesize_layout,
)
from ..obs import prof
from ..schedule.anneal import AnnealConfig, SearchCancelled
from ..schedule.layout import Layout
from ..schedule.simulator import check_policies
from ..search.cache import SimCache
from ..search.evaluator import SerialEvaluator
from .protocol import (
    SYNTHESIS_FORMAT,
    TRACE_FIELD,
    ProtocolError,
    canonical_digest,
    request_key,
)

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


# -- specs ---------------------------------------------------------------------


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


def _cores(params: Dict[str, object]) -> int:
    cores = _require(params, "cores", int, "a positive core count")
    if isinstance(cores, bool) or cores < 1:
        raise ProtocolError("'cores' must be a positive core count")
    return cores


def _hints(params: Dict[str, object]) -> Optional[Tuple[Tuple[str, str], ...]]:
    hints = params.get("hints")
    if hints is None:
        return None
    if not isinstance(hints, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in hints.items()
    ):
        raise ProtocolError("'hints' must map task names to policies")
    try:
        check_policies(hints)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return tuple(sorted(hints.items()))


def _optional_int(params: Dict[str, object], name: str) -> Optional[int]:
    value = params.get(name)
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, int)
    ):
        raise ProtocolError(f"'{name}' must be an integer")
    return value


@dataclass(frozen=True)
class ProgramSpec:
    """The simulation context every operation names: one program + one
    profiling workload."""

    source: str
    filename: str
    args: Tuple[str, ...]
    optimize: bool
    #: sha256 of ``source``, hashed once by :meth:`parse`; the canonical
    #: form, the context and the memo keys all reuse it
    source_sha256: str

    @staticmethod
    def parse(params: Dict[str, object]) -> "ProgramSpec":
        source = _require(params, "source", str, "the program source text")
        return ProgramSpec(
            source=source,
            filename=str(params.get("filename", "<request>")),
            args=_string_list(params, "args"),
            optimize=bool(params.get("optimize", False)),
            source_sha256=hashlib.sha256(source.encode("utf-8")).hexdigest(),
        )

    def context(self) -> str:
        """The SimCache namespace: equal to
        ``context_key(source, args, optimize)``, whose payload is this
        spec's canonical form."""
        return canonical_digest(self.canonical())

    def canonical(self) -> Dict[str, object]:
        """The deterministic identity of the context (``filename`` only
        flavors error messages, so it is deliberately excluded)."""
        return {
            "source_sha256": self.source_sha256,
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
        return SynthesizeSpec(
            program=ProgramSpec.parse(params),
            cores=_cores(params),
            hints=_hints(params),
            seed=_optional_int(params, "seed") or 0,
            mesh_width=_optional_int(params, "mesh_width"),
            max_iterations=_optional_int(params, "max_iterations"),
            max_evaluations=_optional_int(params, "max_evaluations"),
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
        cores = _cores(params)
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
        return SimulateSpec(
            program=program,
            cores=cores,
            mapping=tuple(mapping),
            hints=_hints(params),
            mesh_width=_optional_int(params, "mesh_width"),
        )

    def canonical(self) -> Dict[str, object]:
        return {
            **self.program.canonical(),
            "cores": self.cores,
            "mesh_width": self.mesh_width,
            "layout": {task: list(cores) for task, cores in self.mapping},
            "hints": [list(item) for item in self.hints or []],
        }


# -- the parsed request --------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One heavy request, parsed once.

    ``key`` is :func:`request_key` over the spec's canonical form, the
    key coalescing and the answer memo share. ``trace_id`` is the one
    field kept outside that form, so two requests that differ only in it
    share a key (``deadline_ms`` and ``id`` belong to the daemon and the
    response envelope, and are not kept at all).
    """

    op: str
    spec: Union[ProgramSpec, SynthesizeSpec, SimulateSpec]
    trace_id: Optional[str]
    key: str

    @staticmethod
    def parse(op: str, params: Dict[str, object]) -> "Request":
        """Validates ``params`` as one request of the heavy ``op``;
        raises :class:`ProtocolError` on any malformed field."""
        spec = _OPS[op].spec.parse(params)
        trace_id = params.get(TRACE_FIELD)
        if trace_id is not None and not isinstance(trace_id, str):
            raise ProtocolError(f"'{TRACE_FIELD}' must be a string")
        return Request(op, spec, trace_id, request_key(op, spec.canonical()))

    @property
    def simulates(self) -> bool:
        """True when the op reads its context's shared SimCache."""
        return _OPS[self.op].simulates


# -- pure-function memos -------------------------------------------------------


#: ``synthesize`` answers one :class:`ProgramMemo` keeps; past this the
#: least recently used is dropped
MEMO_ANSWERS = 1024


class ProgramMemo:
    """Cross-request memo of compiled programs, bootstrap profiles and
    ``synthesize`` answers.

    All three are deterministic functions of their keys, so the memo is
    semantically invisible. Compiled programs and profiles remove the
    recompile/re-profile tax every offline invocation pays; both are
    keyed by the spec's source digest. An answer is kept under its
    request's key (:attr:`Request.key`), so a repeat differing only in
    ``trace_id``, ``deadline_ms`` or ``id`` is answered without compiling,
    profiling or searching. Answers live in memory only, at most
    :data:`MEMO_ANSWERS` of them in least-recently-used order, and are
    held as JSON text, so no caller can mutate a kept one.

    Thread-safe: compilation runs outside the lock (two racing threads
    may both compile, one result wins — cheaper than serializing every
    compile behind one lock).
    """

    def __init__(self):
        self._compiled: Dict[Tuple[str, bool], object] = {}
        self._profiles: Dict[Tuple[str, Tuple[str, ...], bool], object] = {}
        self._answers: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.Lock()
        self.compile_hits = 0
        self.compile_misses = 0
        self.profile_hits = 0
        self.profile_misses = 0
        self.answer_hits = 0
        self.answer_misses = 0

    def compiled(self, spec: ProgramSpec):
        key = (spec.source_sha256, spec.optimize)
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
        key = (spec.source_sha256, spec.args, spec.optimize)
        with self._lock:
            cached = self._profiles.get(key)
            if cached is not None:
                self.profile_hits += 1
                return cached
            self.profile_misses += 1
        profile = profile_program(self.compiled(spec), spec.args)
        with self._lock:
            return self._profiles.setdefault(key, profile)

    def answer(self, key: str) -> Optional[Dict[str, object]]:
        """A fresh copy of the answer kept under ``key``, or None."""
        with self._lock:
            text = self._answers.get(key)
            if text is None:
                self.answer_misses += 1
                return None
            self._answers.move_to_end(key)
            self.answer_hits += 1
        return json.loads(text)

    def keep(self, key: str, result: Dict[str, object]) -> None:
        """Keeps ``result`` (JSON-ready) as the answer to ``key``."""
        text = json.dumps(result)
        with self._lock:
            self._answers[key] = text
            self._answers.move_to_end(key)
            while len(self._answers) > MEMO_ANSWERS:
                self._answers.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "compiled": len(self._compiled),
                "profiles": len(self._profiles),
                "answers": len(self._answers),
                "compile_hits": self.compile_hits,
                "compile_misses": self.compile_misses,
                "profile_hits": self.profile_hits,
                "profile_misses": self.profile_misses,
                "answer_hits": self.answer_hits,
                "answer_misses": self.answer_misses,
            }


# -- operations ----------------------------------------------------------------


def _compile(request: Request, memo: ProgramMemo, cache, workers, cancel):
    spec = request.spec
    compiled = memo.compiled(spec)
    return {
        "tasks": compiled.task_names(),
        "classes": sorted(compiled.info.classes),
        "context": spec.context(),
    }, {}


def _profile(request: Request, memo: ProgramMemo, cache, workers, cancel):
    spec = request.spec
    profile = memo.profile(spec)
    return {
        "context": spec.context(),
        "run_cycles": profile.run_cycles,
        "tasks": {
            task: {"invocations": stats.invocations}
            for task, stats in sorted(profile.tasks.items())
        },
    }, {}


def _synthesize(request: Request, memo: ProgramMemo, cache, workers, cancel):
    """Answers a repeat from the memo (telemetry ``memo: true``, no
    evaluations); otherwise searches, and keeps the answer only if the
    search ran to the end uncancelled. ``cache`` and ``workers`` never
    change the result — the former by the SimCache transparency +
    request-charged budget, the latter by the :mod:`repro.search` batch
    contract; ``cancel`` is polled at every search iteration boundary."""
    result = memo.answer(request.key)
    if result is not None:
        return result, {"evaluations": 0, "cache_hits": 0, "memo": True}
    spec = request.spec
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
        # Requests (simulations + hits) are cache-state independent
        # under the request-charged budget, so this is a deterministic
        # field; the hit/miss split is not, and lives in telemetry.
        "requested_evaluations": report.requested_evaluations,
    }
    # A search whose deadline fired may still have finished; its caller
    # was already answered with an error, so it is not kept.
    if cancel is None or not cancel.is_set():
        memo.keep(request.key, result)
    return result, {
        "evaluations": report.evaluations,
        "cache_hits": report.cache_hits,
    }


def _simulate(request: Request, memo: ProgramMemo, cache, workers, cancel):
    """Scores one explicit layout (sharing the context's SimCache, so a
    layout the search already visited is answered without simulating)."""
    spec = request.spec
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
    return {
        "request": spec.canonical(),
        "cycles": scored.cycles,
        "finished": scored.result.finished,
        "utilization": scored.result.utilization,
        "invocations": dict(sorted(scored.result.invocations.items())),
    }, {
        "cache_hits": outcome.cache_hits,
        "evaluations": outcome.simulations,
    }


class _Op(NamedTuple):
    """One row of the op table: the spec that parses the op's parameters,
    the body ``(request, memo, cache, workers, cancel) -> (result,
    telemetry)`` that :func:`execute` runs after its first cancellation
    check, and whether the body reads its context's shared SimCache."""

    spec: type
    body: Callable
    simulates: bool


#: every heavy operation; a new one is one spec plus one row here
_OPS: Dict[str, _Op] = {
    "compile": _Op(ProgramSpec, _compile, False),
    "profile": _Op(ProgramSpec, _profile, False),
    "synthesize": _Op(SynthesizeSpec, _synthesize, True),
    "simulate": _Op(SimulateSpec, _simulate, True),
}

_P_SERVE = {op: prof.intern_phase(f"serve.{op}") for op in _OPS}


def execute(
    request: Request,
    memo: Optional[ProgramMemo] = None,
    cache: Optional[SimCache] = None,
    workers: int = 1,
    cancel=None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Runs one parsed request; returns ``(result, telemetry)``.

    The daemon passes its shared memo, the context's persistent cache
    and its worker count; the offline path passes none and runs on a
    fresh memo. ``cancel`` (anything with ``is_set()``) is polled before
    the first stage and between stages; once set it raises
    :class:`SearchCancelled`, which reclaims the thread. The body runs
    in a ``serve.<op>`` phase whose span slice (``reset=True``: a pooled
    thread's buffer never leaks across requests) is echoed in telemetry
    with the ``trace_id`` and a fresh ``span_id`` when one was sent.
    """
    started = _time.perf_counter()
    with prof.collect_spans(reset=True) as spans:
        with prof.phase(_P_SERVE[request.op]):
            _check_cancel(cancel, "compile")
            result, telemetry = _OPS[request.op].body(
                request, memo or ProgramMemo(), cache, workers, cancel
            )
    telemetry["wall_seconds"] = _time.perf_counter() - started
    if request.trace_id is not None:
        telemetry["trace"] = {
            "trace_id": request.trace_id,
            "span_id": os.urandom(8).hex(),
            "spans": spans,
        }
    return result, telemetry
