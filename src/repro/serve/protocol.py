"""The wire protocol of the synthesis service.

Newline-delimited JSON over a stream socket: each request is one JSON
object on one line, each response one JSON object on one line, in order.
The framing is deliberately primitive — any language (or ``nc``) can
speak it, and one TCP connection can pipeline many requests.

Request::

    {"op": "synthesize", "id": "optional-echo", ...op parameters}

Response::

    {"id": ..., "ok": true,  "result": {...}, "telemetry": {...}}
    {"id": ..., "ok": false, "error": {"code": "...", "message": "..."}}

``result`` carries only *deterministic* fields — everything a served
operation computes that must be bit-identical to the same request run
through the offline pipeline, warm or cold cache. Wall-clock, cache-hit
counts, and coalescing flags live in ``telemetry``, which no determinism
contract covers.

Request tracing: a heavy request may carry a ``trace_id`` (any string,
:data:`TRACE_FIELD`). The daemon echoes it in ``telemetry["trace"]``
together with a server-generated ``span_id`` and the wall-clock spans its
pipeline closed while answering, so one request is followable
client → daemon → search → simulator in a single exported trace
(``repro obs``/:func:`repro.obs.prof.build_request_trace`). The field is
deliberately excluded from request canonicalization — two requests that
differ only in ``trace_id`` still coalesce, and a coalesced follower
receives the leader's trace.

Two derived keys organize the server's state:

* :func:`request_key` — sha256 over the canonicalized request; identical
  in-flight requests coalesce onto one execution.
* :func:`context_key` — sha256 over the *simulation context* (program
  source, profiling arguments, optimization flag). Layout fingerprints
  are only meaningful within one context, so the persistent SimCache is
  namespaced by it: two programs never share entries, while every
  request against the same program+workload does.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Sequence

from ..lang.errors import BambooError

PROTOCOL = "repro.serve/protocol-v1"
SYNTHESIS_FORMAT = "repro.serve/synthesis-v1"

#: a request or response line larger than this is refused — the protocol
#: carries sources and layouts, not bulk data
MAX_LINE_BYTES = 8 * 1024 * 1024

#: every operation the daemon answers
OPS = (
    "ping",
    "compile",
    "profile",
    "synthesize",
    "simulate",
    "metrics",
    "flush",
    "shutdown",
)

#: operations that run on the worker pool (and are subject to admission
#: control and coalescing); the rest are answered on the event loop
HEAVY_OPS = ("compile", "profile", "synthesize", "simulate")

#: optional request field naming a client-chosen trace id; echoed (with
#: the server's span slice) in ``telemetry["trace"]``, never in ``result``
TRACE_FIELD = "trace_id"

# -- error codes ---------------------------------------------------------------

E_BAD_REQUEST = "bad_request"
E_UNKNOWN_OP = "unknown_op"
E_OVERLOADED = "overloaded"
E_DRAINING = "draining"
E_DEADLINE = "deadline_exceeded"
E_PROGRAM = "program_error"
E_INTERNAL = "internal_error"

#: error codes a client may retry: the daemon refused to *start* the work
#: (capacity or lifecycle), so nothing was computed and nothing can differ
#: on a retry. ``deadline_exceeded`` is deliberately absent — execution is
#: deterministic, so an operation that overran once will overrun again.
RETRYABLE_CODES = (E_OVERLOADED, E_DRAINING)


class ProtocolError(BambooError):
    """A malformed request or response line."""


def encode(message: Dict[str, object]) -> bytes:
    """One message as one JSON line (sorted keys, ASCII — byte-stable)."""
    return (
        json.dumps(message, sort_keys=True, ensure_ascii=True).encode("ascii")
        + b"\n"
    )


def decode(line: bytes) -> Dict[str, object]:
    """Parses one received line; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line limit"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def ok_response(
    request: Dict[str, object],
    result: Dict[str, object],
    telemetry: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    response: Dict[str, object] = {"ok": True, "result": result}
    if telemetry is not None:
        response["telemetry"] = telemetry
    if "id" in request:
        response["id"] = request["id"]
    return response


def error_response(
    request: Dict[str, object],
    code: str,
    message: str,
    retry_after_ms: Optional[int] = None,
) -> Dict[str, object]:
    error: Dict[str, object] = {"code": code, "message": message}
    if retry_after_ms is not None:
        # A server-supplied backoff hint for retryable errors; clients
        # treat it as advisory and cap it with their own policy.
        error["retry_after_ms"] = int(retry_after_ms)
    response: Dict[str, object] = {"ok": False, "error": error}
    if isinstance(request, dict) and "id" in request:
        response["id"] = request["id"]
    return response


# -- derived keys --------------------------------------------------------------


def canonical_digest(payload: Dict[str, object]) -> str:
    """sha256 over ``payload`` as sorted-key ASCII JSON: both keys below."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, ensure_ascii=True).encode("ascii")
    ).hexdigest()


def request_key(op: str, canonical_params: Dict[str, object]) -> str:
    """The coalescing key: identical in-flight requests share one run."""
    return canonical_digest({"op": op, "params": canonical_params})


def context_key(source: str, args: Sequence[str], optimize: bool) -> str:
    """The SimCache namespace: one per (program, workload, optimize).

    A layout fingerprint keys a simulation outcome only *within* a fixed
    compiled program and profile; the profile is a deterministic function
    of (source, args), so this digest fixes both. Within the namespace
    the evaluator's cache key adds what else a simulation depends on: the
    core speeds and the request's hints. The answers a daemon keeps in
    memory are keyed by :func:`request_key` instead, which covers the
    whole canonical request.
    """
    return canonical_digest(
        {
            "source_sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
            "args": list(args),
            "optimize": bool(optimize),
        }
    )
