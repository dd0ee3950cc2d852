"""Hardened record storage shared by every persistence and payload format.

Three formats live on disk — search checkpoints
(``repro.search/checkpoint-v4``, :mod:`repro.search.checkpoint`), the
distributed coordinator's frontier checkpoint
(``repro.search/dist-frontier-v1``, :mod:`repro.search.dist.coordinator`)
and the serving layer's persistent simulation cache
(``repro.serve/simcache-v1``, :mod:`repro.serve.store`). The
distributed search's wire payloads (``repro.search/dist-job-v1``,
``dist-shard-v1`` and ``dist-result-v1``, :mod:`repro.search.dist.messages`)
are the same records built in memory (:func:`pack_pickle_record`) and
base64-encoded into one message field. All of them need the versioned
header and the digest check below, and the files the atomic write too,
so the machinery lives here once:

* **Atomic writes** — write ``<path>.tmp`` in the same directory, flush,
  fsync, ``os.replace`` onto the target, then fsync the directory so the
  rename itself survives a host crash. A crash mid-write leaves the
  previous file intact; there is never a moment with no valid record on
  disk.
* **Versioned header** — one ASCII JSON line naming the format, so a
  reader can refuse a foreign or out-of-date file before touching the
  payload. Formats are bumped on any payload shape change and old
  versions are *not* migrated — these files are caches and crash
  artifacts, not archives.
* **Digest verification** — the header carries the sha256 of the payload
  bytes, so truncation and corruption are detected before unpickling.

File layout::

    {"format": "<fmt>", "digest": "<sha256>", ...extra}\\n
    <payload bytes>

Readers raise :class:`StorageError` (with a machine-checkable ``code``)
on any missing, corrupt, truncated, or incompatible file; writers raise
nothing beyond the underlying ``OSError``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import Dict, Optional, Tuple, Type

from ..lang.errors import BambooError


class StorageError(BambooError):
    """A stored record is missing, corrupt, or incompatible.

    ``code`` is one of ``unreadable``, ``not_record``,
    ``format_mismatch``, ``digest_mismatch``, ``unpicklable``, or
    ``wrong_type`` so callers can react without parsing messages.
    """

    def __init__(self, message: str, code: str = "unreadable"):
        super().__init__(message)
        self.code = code


def payload_digest(payload: bytes) -> str:
    """The sha256 hex digest every record header carries."""
    return hashlib.sha256(payload).hexdigest()


def write_record(
    path: str,
    fmt: str,
    payload: bytes,
    extra_header: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Atomically writes ``payload`` under a digest-bearing ``fmt`` header;
    returns the header that was written."""
    header: Dict[str, object] = dict(extra_header or {})
    header["format"] = fmt
    header["digest"] = payload_digest(payload)
    directory = os.path.dirname(os.path.abspath(path))
    temp = path + ".tmp"
    with open(temp, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("ascii"))
        handle.write(b"\n")
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    # Persist the rename too, so the record survives a host crash.
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return header
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(dir_fd)
    return header


def read_record(
    path: str,
    fmt: str,
    kind: str = "record",
    long_kind: Optional[str] = None,
) -> Tuple[Dict[str, object], bytes]:
    """Loads and verifies one record; returns ``(header, payload)``.

    ``kind`` and ``long_kind`` only flavor the error messages (e.g.
    ``"checkpoint"`` / ``"search checkpoint"``) so each consumer keeps its
    established diagnostics while sharing the verification logic.
    """
    long_kind = long_kind or kind
    try:
        with open(path, "rb") as handle:
            header_line = handle.readline()
            payload = handle.read()
    except OSError as exc:
        raise StorageError(
            f"cannot read {kind} {path!r}: {exc}", code="unreadable"
        )
    try:
        header = json.loads(header_line.decode("ascii"))
        if not isinstance(header, dict):
            raise ValueError("header is not an object")
    except (UnicodeDecodeError, ValueError):
        raise StorageError(
            f"{path!r} is not a {long_kind}", code="not_record"
        )
    found = header.get("format")
    if found != fmt:
        raise StorageError(
            f"{path!r} has {kind} format {found!r}, expected {fmt!r} "
            f"(old formats are not migrated)",
            code="format_mismatch",
        )
    digest = payload_digest(payload)
    if digest != header.get("digest"):
        raise StorageError(
            f"{path!r} is corrupt: payload digest mismatch "
            f"(expected {header.get('digest')}, got {digest})",
            code="digest_mismatch",
        )
    return header, payload


def pack_record(
    fmt: str,
    payload: bytes,
    extra_header: Optional[Dict[str, object]] = None,
) -> bytes:
    """The in-memory twin of :func:`write_record`: one header line plus
    the payload, as bytes. Used by the dist wire protocol, so a shard
    payload crossing a socket carries the same format name and sha256
    digest it would carry on disk."""
    header: Dict[str, object] = dict(extra_header or {})
    header["format"] = fmt
    header["digest"] = payload_digest(payload)
    return (
        json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + payload
    )


def unpack_record(
    data: bytes,
    fmt: str,
    kind: str = "record",
    long_kind: Optional[str] = None,
    name: str = "<wire>",
) -> Tuple[Dict[str, object], bytes]:
    """Verifies one in-memory record; returns ``(header, payload)``.

    Raises the same coded :class:`StorageError` family as
    :func:`read_record`, with ``name`` standing in for the file path in
    diagnostics (e.g. the sending peer).
    """
    long_kind = long_kind or kind
    header_line, sep, payload = data.partition(b"\n")
    try:
        header = json.loads(header_line.decode("ascii"))
        if not isinstance(header, dict):
            raise ValueError("header is not an object")
    except (UnicodeDecodeError, ValueError):
        raise StorageError(
            f"{name!r} is not a {long_kind}", code="not_record"
        )
    if not sep:
        raise StorageError(
            f"{name!r} is truncated: no {kind} payload", code="not_record"
        )
    found = header.get("format")
    if found != fmt:
        raise StorageError(
            f"{name!r} has {kind} format {found!r}, expected {fmt!r} "
            f"(old formats are not migrated)",
            code="format_mismatch",
        )
    digest = payload_digest(payload)
    if digest != header.get("digest"):
        raise StorageError(
            f"{name!r} is corrupt: payload digest mismatch "
            f"(expected {header.get('digest')}, got {digest})",
            code="digest_mismatch",
        )
    return header, payload


def pack_pickle_record(
    fmt: str,
    obj: object,
    extra_header: Optional[Dict[str, object]] = None,
) -> bytes:
    """Pickles ``obj`` into one in-memory record."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return pack_record(fmt, payload, extra_header=extra_header)


def unpack_pickle_record(
    data: bytes,
    fmt: str,
    expected_type: Optional[Type] = None,
    kind: str = "record",
    long_kind: Optional[str] = None,
    name: str = "<wire>",
) -> Tuple[Dict[str, object], object]:
    """Verifies and unpickles one in-memory record."""
    header, payload = unpack_record(
        data, fmt, kind=kind, long_kind=long_kind, name=name
    )
    try:
        obj = pickle.loads(payload)
    except Exception as exc:
        raise StorageError(
            f"cannot unpickle {kind} {name!r}: {exc}", code="unpicklable"
        )
    if expected_type is not None and not isinstance(obj, expected_type):
        raise StorageError(
            f"{name!r} does not contain a {expected_type.__name__}",
            code="wrong_type",
        )
    return header, obj


def write_pickle_record(
    path: str,
    fmt: str,
    obj: object,
    extra_header: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Pickles ``obj`` and writes it as one atomic record."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return write_record(path, fmt, payload, extra_header=extra_header)


def read_pickle_record(
    path: str,
    fmt: str,
    expected_type: Optional[Type] = None,
    kind: str = "record",
    long_kind: Optional[str] = None,
) -> Tuple[Dict[str, object], object]:
    """Reads one record and unpickles its verified payload, optionally
    type-checking the result; returns ``(header, object)``."""
    header, payload = read_record(path, fmt, kind=kind, long_kind=long_kind)
    try:
        obj = pickle.loads(payload)
    except Exception as exc:
        raise StorageError(
            f"cannot unpickle {kind} {path!r}: {exc}", code="unpicklable"
        )
    if expected_type is not None and not isinstance(obj, expected_type):
        raise StorageError(
            f"{path!r} does not contain a {expected_type.__name__}",
            code="wrong_type",
        )
    return header, obj
