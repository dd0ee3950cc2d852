"""Layer-boundary spans for the traced run.

The traced run wraps the public functions and methods of each layer at
the place where their callers look them up (a module global of
``repro.core.api``, or a method on its class) and records one span per
call: name, start, end, parent span and op id. Spans stay in memory and
are written out when the run ends. A layer's busy time is the time of
its spans minus the time of their child spans.

Only the benchmark process records: a forked pool worker inherits the
wrappers but calls straight through, so pool workers and the serving
daemon are timed from the calling side.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional

#: per-layer metric -> (span name, "self" or "total" time)
BUSY_METRICS = {
    "lang.busy_s": ("lang", "self"),
    "sema.busy_s": ("sema", "self"),
    "ir.busy_s": ("ir", "self"),
    "analysis.busy_s": ("analysis", "self"),
    "runtime.interp_busy_s": ("interp", "total"),
    "runtime.machine_busy_s": ("machine", "self"),
    "schedule.sim_busy_s": ("sim", "total"),
    "schedule.anneal_busy_s": ("synthesize", "self"),
    "search.evaluate_s": ("evaluate", "total"),
}

#: span names whose self time belongs to a layer, for the attribution
#: report; every other span (the benchmark's own op spans) is glue
LAYER_OF_SPAN = {
    "lang": "repro.lang",
    "sema": "repro.sema",
    "ir": "repro.ir",
    "analysis": "repro.analysis",
    "interp": "repro.runtime (interpreter)",
    "machine": "repro.runtime (machine)",
    "sim": "repro.schedule (simulator)",
    "synthesize": "repro.schedule (annealer)",
    "evaluate": "repro.search",
}


class Tracer:
    """In-memory span recorder plus the counts taken at the same
    boundaries."""

    def __init__(self):
        self.pid = os.getpid()
        #: [span id, name, start ns, end ns, parent id, op id]
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: List[tuple] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: Optional[str]) -> None:
        """Tags the spans this thread opens from now on."""
        self._local.op = op

    def current(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [
            next(self._ids),
            name,
            0,
            0,
            stack[-1][0] if stack else None,
            getattr(self._local, "op", None),
        ]
        self.spans.append(span)
        stack.append(span)
        span[2] = time.perf_counter_ns()
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        handle = self.begin(name)
        try:
            yield
        finally:
            self.end(handle)

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
        only_inside: Optional[str] = None,
    ) -> None:
        """Replaces ``owner.attr`` with a recording wrapper.

        ``before(args)`` runs ahead of the call and its value reaches
        ``after(args, result, state)``; ``only_inside`` records the call
        only when the innermost open span has that name."""
        had = attr in vars(owner)
        raw = inspect.getattr_static(owner, attr)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid or (
                only_inside is not None and tracer.current() != only_inside
            ):
                return original(*args, **kwargs)
            state = before(args) if before is not None else None
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(args, result, state)
            return result

        setattr(
            owner,
            attr,
            staticmethod(traced) if isinstance(raw, staticmethod) else traced,
        )
        self._undo.append((owner, attr, raw if had else None))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._undo.clear()

    # -- aggregation -----------------------------------------------------------

    def times(
        self, op_filter: Optional[Callable] = None
    ) -> Dict[str, Dict[str, float]]:
        """Seconds per span name: ``total`` and ``self`` (minus children)."""
        child_ns: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[4] is not None:
                child_ns[span[4]] += span[3] - span[2]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"total": 0.0, "self": 0.0, "calls": 0}
        )
        for span in self.spans:
            if op_filter is not None and not op_filter(span[5]):
                continue
            duration = span[3] - span[2]
            entry = out[span[1]]
            entry["total"] += duration / 1e9
            entry["self"] += (duration - child_ns[span[0]]) / 1e9
            entry["calls"] += 1
        return dict(out)

    def busy_metrics(self) -> Dict[str, float]:
        times = self.times()
        return {
            metric: times.get(name, {}).get(kind, 0.0)
            for metric, (name, kind) in BUSY_METRICS.items()
        }

    def write(self, path: str) -> None:
        """Writes every span, columnar, with its name table."""
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                    "names": names,
                    "spans": [
                        [s[0], index[s[1]], s[2], s[3], s[4], s[5]]
                        for s in self.spans
                    ],
                    "counts": dict(self.counts),
                },
                handle,
            )


def maybe_span(tracer: Optional[Tracer], name: str):
    """A recording span when tracing, else a no-op context."""
    return tracer.span(name) if tracer is not None else nullcontext()


def install(tracer: Tracer) -> None:
    """Wraps the in-process layers on the measured path."""
    from repro.core import api
    from repro.lang.parser import Parser
    from repro.runtime.interp import Interpreter
    from repro.runtime.machine import ManyCoreMachine
    from repro.schedule.simulator import SimSession
    from repro.search.evaluator import ParallelEvaluator, SerialEvaluator

    counts = tracer.counts

    def count_tokens(args, tokens, state):
        counts["lang.tokens"] += len(tokens)

    def count_instrs(args, program, state):
        counts["ir.instrs"] += sum(
            len(block.instructions)
            for functions in (program.methods, program.tasks)
            for function in functions.values()
            for block in function.blocks
        )

    def count_machine(args, result, state):
        machine = args[0]
        counts["runtime.interp_steps"] += machine.interp.steps
        counts["runtime.invocations"] += sum(result.invocations.values())
        counts["runtime.messages"] += result.messages
        counts["runtime.lock_failures"] += result.lock_failures

    def count_simulated(args, outcome, state):
        counts["schedule.sim_invocations"] += sum(
            len(item.result.trace)
            for item in outcome.scored
            if not item.from_cache
        )

    delta_keys = ("delta_attempts", "delta_resumes", "events_skipped")

    def session_before(args):
        session = args[0]
        return [getattr(session, key) for key in delta_keys]

    def session_after(args, result, state):
        session = args[0]
        for key, start in zip(delta_keys, state):
            counts["schedule." + key] += getattr(session, key) - start

    tracer.wrap(api, "tokenize", "lang", after=count_tokens)
    tracer.wrap(Parser, "parse_program", "lang")
    tracer.wrap(api, "analyze", "sema")
    tracer.wrap(api, "lower_program", "ir", after=count_instrs)
    tracer.wrap(api, "verify_program", "ir")
    for function in ("build_all_astgs", "analyze_disjointness", "build_lock_plan"):
        tracer.wrap(api, function, "analysis")
    # CSTG.build also runs inside synthesis (the annotated CSTG), where it
    # is annealer work; only the compile-time call is the analysis layer.
    tracer.wrap(api.CSTG, "build", "analysis", only_inside="compile")
    tracer.wrap(ManyCoreMachine, "run", "machine", after=count_machine)
    tracer.wrap(Interpreter, "run_task", "interp")
    for evaluator in (SerialEvaluator, ParallelEvaluator):
        tracer.wrap(evaluator, "evaluate", "evaluate", after=count_simulated)
    tracer.wrap(
        SimSession, "simulate", "sim", before=session_before, after=session_after
    )
