"""Wire messages of the coordinator/worker protocol.

The substrate is the serve layer's newline-delimited JSON
(:mod:`repro.serve.protocol`): one JSON object per line, sorted keys,
ASCII, bounded line length. On top of it, every bulky value (the job
context, a shard spec, a shard result) travels as a **storage record** —
the same ``{"format", "digest"}`` header + pickle layout search
checkpoints use on disk (:mod:`repro.search.storage`), base64-encoded
into one JSON field. A garbled connection therefore surfaces as a typed
:class:`~repro.search.storage.StorageError` (digest or format mismatch)
before a single byte is unpickled, and the receiver can refuse, count,
and re-dispatch instead of crashing on a half-message.

Message flow (one connection per worker, coordinator is the server)::

    worker → coord   {"op": "hello", "proto": ..., "worker": ..., "pid": ...}
    coord  → worker  {"op": "job",    "payload": <b64 job record>}
    coord  → worker  {"op": "shard",  "shard": id, "seq": n,
                      "payload": <b64 shard record>, ["chaos": ...]}
    worker → coord   {"op": "result", "shard": id, "seq": n,
                      "payload": <b64 result record>}
    worker → coord   {"op": "shard_error", "shard": id, "seq": n,
                      "error": "..."}
    coord  → worker  {"op": "bye"}

``seq`` is the coordinator's global dispatch sequence id: a shard
re-dispatched after a lease expiry carries a *new* seq, so a late result
from the original dispatch is recognizable — first result per shard
wins, later ones are discarded by seq, and the reduction order never
depends on arrival order.
"""

from __future__ import annotations

import base64
from typing import Dict, Optional, Tuple, Type

from ...lang.errors import BambooError
from ...serve.protocol import MAX_LINE_BYTES, ProtocolError, decode, encode
from ..storage import StorageError, pack_pickle_record, unpack_pickle_record

#: bumped on any incompatible message-shape change; a hello carrying a
#: different protocol is refused before any payload crosses the wire
DIST_PROTOCOL = "repro.search/dist-v1"

JOB_FORMAT = "repro.search/dist-job-v1"
SHARD_FORMAT = "repro.search/dist-shard-v3"
RESULT_FORMAT = "repro.search/dist-result-v1"
FRONTIER_FORMAT = "repro.search/dist-frontier-v1"

__all__ = [
    "DIST_PROTOCOL",
    "JOB_FORMAT",
    "SHARD_FORMAT",
    "RESULT_FORMAT",
    "FRONTIER_FORMAT",
    "DistProtocolError",
    "LineReader",
    "pack_payload",
    "unpack_payload",
    "send_message",
    "recv_message",
]


class DistProtocolError(BambooError):
    """A peer sent something the dist protocol cannot accept.

    Wraps both framing problems (bad JSON, oversized lines — the serve
    layer's :class:`~repro.serve.protocol.ProtocolError`) and payload
    problems (digest/format mismatch — :class:`StorageError`), so the
    connection-handling code has one thing to catch, count as a garbled
    message, and answer by dropping the connection.
    """

    def __init__(self, message: str, code: str = "protocol"):
        super().__init__(message)
        self.code = code


def pack_payload(fmt: str, obj: object) -> str:
    """Pickles ``obj`` into a digest-bearing storage record and base64s
    it into one ASCII JSON-safe field."""
    return base64.b64encode(pack_pickle_record(fmt, obj)).decode("ascii")


def unpack_payload(
    text: str,
    fmt: str,
    expected_type: Optional[Type] = None,
    name: str = "<peer>",
) -> object:
    """Decodes, digest-verifies, and unpickles one payload field; raises
    :class:`DistProtocolError` on anything short of a valid record."""
    try:
        data = base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise DistProtocolError(
            f"{name}: payload is not base64: {exc}", code="not_record"
        )
    try:
        _, obj = unpack_pickle_record(
            data, fmt, expected_type=expected_type, kind="dist payload",
            name=name,
        )
    except StorageError as exc:
        raise DistProtocolError(str(exc), code=exc.code)
    return obj


class LineReader:
    """Newline-framed socket reader that survives read timeouts.

    A ``sock.makefile("rb")`` reader may lose buffered bytes when a
    timeout interrupts it mid-line; the coordinator polls with short
    timeouts while watching leases, so partial lines must stay buffered
    across attempts. ``socket.timeout`` from ``recv`` propagates to the
    caller with the partial line intact.
    """

    def __init__(self, sock):
        self._sock = sock
        self._buf = bytearray()
        self._eof = False

    def readline(self, limit: int) -> bytes:
        while True:
            index = self._buf.find(b"\n")
            if index >= 0:
                index += 1
                line = bytes(self._buf[:index])
                del self._buf[:index]
                return line
            if self._eof or len(self._buf) > limit:
                line = bytes(self._buf)
                self._buf.clear()
                return line
            chunk = self._sock.recv(65536)
            if not chunk:
                self._eof = True
                continue
            self._buf.extend(chunk)


def send_message(sock, message: Dict[str, object]) -> None:
    """Encodes and writes one message line (sorted keys, ASCII)."""
    sock.sendall(encode(message))


def recv_message(reader, name: str = "<peer>") -> Optional[Dict[str, object]]:
    """Reads one message line from a ``makefile("rb")`` reader.

    Returns ``None`` on clean EOF; raises :class:`DistProtocolError` on
    an oversized or undecodable line. Socket timeouts propagate as
    ``TimeoutError`` for the caller's lease bookkeeping.
    """
    line = reader.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise DistProtocolError(
            f"{name}: message line exceeds {MAX_LINE_BYTES} bytes",
            code="oversized",
        )
    try:
        return decode(line)
    except ProtocolError as exc:
        raise DistProtocolError(f"{name}: {exc}", code="garbled")


def check_hello(message: Dict[str, object]) -> Tuple[str, int]:
    """Validates a worker's hello; returns ``(worker_name, pid)``."""
    if message.get("op") != "hello":
        raise DistProtocolError(
            f"expected hello, got {message.get('op')!r}", code="bad_hello"
        )
    proto = message.get("proto")
    if proto != DIST_PROTOCOL:
        raise DistProtocolError(
            f"worker speaks {proto!r}, coordinator speaks "
            f"{DIST_PROTOCOL!r}",
            code="proto_mismatch",
        )
    return str(message.get("worker", "?")), int(message.get("pid", 0))
