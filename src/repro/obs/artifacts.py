"""Schema checks and one-screen summaries for exported artifacts.

The repo now exports half a dozen JSON artifact flavors (Chrome traces,
machine metrics, search/serve metrics, profiles, benchmark telemetry)
plus the Prometheus text endpoint. ``repro obs validate <file>`` and
``repro obs summarize <file>`` route any of them through this module so
nobody has to eyeball raw JSON to know whether an export is well-formed.

Identification is by the embedded ``schema`` id (top-level or under
``otherData`` for traces); a document that parses as JSON but carries no
known schema is an error, and a non-JSON file is linted as Prometheus
text exposition.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from . import prof
from .export import validate_chrome_trace
from .metrics import SCHEMA, SEARCH_SCHEMA, SERVE_SCHEMA
from .promexp import validate_prometheus_text

BENCH_SCHEMA = "repro.bench/telemetry-v1"

KNOWN_SCHEMAS = (
    prof.TRACE_SCHEMA,
    SCHEMA,
    SEARCH_SCHEMA,
    SERVE_SCHEMA,
    prof.PROFILE_SCHEMA,
    BENCH_SCHEMA,
)


class ArtifactError(ValueError):
    """A document that fails identification or schema validation."""


def load_artifact(path: str) -> Tuple[str, object]:
    """Reads ``path`` -> (``"json"`` | ``"prometheus"``, payload)."""
    with open(path) as handle:
        text = handle.read()
    try:
        return "json", json.loads(text)
    except json.JSONDecodeError:
        return "prometheus", text


def identify(doc: object) -> str:
    """The schema id of a parsed JSON artifact."""
    if isinstance(doc, dict):
        schema = doc.get("schema")
        if isinstance(schema, str):
            return schema
        other = doc.get("otherData")
        if isinstance(other, dict) and isinstance(other.get("schema"), str):
            return other["schema"]
        if "traceEvents" in doc:
            return prof.TRACE_SCHEMA
    raise ArtifactError(
        "unrecognized artifact: no 'schema' id "
        f"(known: {', '.join(KNOWN_SCHEMAS)})"
    )


def _require(doc: dict, keys: Tuple[str, ...], what: str) -> None:
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ArtifactError(f"{what}: missing keys {missing}")


def _validate_metrics(doc: dict) -> Dict[str, object]:
    _require(doc, ("accounting", "counters", "histograms"), SCHEMA)
    accounting = doc["accounting"]
    totals = accounting.get("totals", {})
    total = sum(totals.values())
    if total != accounting.get("makespan_x_cores"):
        raise ArtifactError(
            f"{SCHEMA}: cycle accounting does not tile "
            f"({total} != {accounting.get('makespan_x_cores')})"
        )
    return {"accounting": totals, "counters": len(doc["counters"])}


def _validate_search_metrics(doc: dict) -> Dict[str, object]:
    _require(
        doc,
        ("workers", "evaluations", "cache_hits", "requested_evaluations",
         "cache_hit_rate"),
        SEARCH_SCHEMA,
    )
    if doc["requested_evaluations"] != doc["evaluations"] + doc["cache_hits"]:
        raise ArtifactError(
            f"{SEARCH_SCHEMA}: requested != evaluations + cache_hits"
        )
    if not 0.0 <= doc["cache_hit_rate"] <= 1.0:
        raise ArtifactError(f"{SEARCH_SCHEMA}: cache_hit_rate out of [0,1]")
    cache = doc.get("sim_cache")
    if cache and cache["lookups"] != cache["hits"] + cache["misses"]:
        raise ArtifactError(f"{SEARCH_SCHEMA}: sim_cache lookups don't tile")
    return {
        "workers": doc["workers"],
        "evaluations": doc["evaluations"],
        "cache_hit_rate": doc["cache_hit_rate"],
    }


def _validate_serve_metrics(doc: dict) -> Dict[str, object]:
    _require(doc, ("counters", "gauges", "histograms"), SERVE_SCHEMA)
    rate = doc.get("cache_hit_rate")
    if rate is not None and not 0.0 <= rate <= 1.0:
        raise ArtifactError(f"{SERVE_SCHEMA}: cache_hit_rate out of [0,1]")
    for name, summary in doc["histograms"].items():
        if summary["count"] < 0 or summary["sum"] < 0:
            raise ArtifactError(f"{SERVE_SCHEMA}: negative histogram {name}")
    return {
        "requests": doc["counters"].get("serve_requests", 0),
        "histograms": len(doc["histograms"]),
    }


def _check_profile_node(node: dict, path: str) -> int:
    for key in ("name", "count", "total_ns", "self_ns", "children"):
        if key not in node:
            raise ArtifactError(
                f"{prof.PROFILE_SCHEMA}: node {path or '<root>'} missing {key}"
            )
    if node["count"] < 0 or node["total_ns"] < 0:
        raise ArtifactError(
            f"{prof.PROFILE_SCHEMA}: negative accounting at {path}"
        )
    nodes = 1
    for child in node["children"]:
        nodes += _check_profile_node(child, f"{path}/{child['name']}")
    return nodes


def _validate_profile(doc: dict) -> Dict[str, object]:
    _require(doc, ("phases", "counters", "threads"), prof.PROFILE_SCHEMA)
    nodes = 0
    for node in doc["phases"]:
        nodes += _check_profile_node(node, node.get("name", "?"))
    summary: Dict[str, object] = {"phases": nodes, "threads": doc["threads"]}
    cov = prof.coverage(doc)
    if cov is not None:
        summary["coverage"] = round(cov, 4)
    return summary


def _validate_bench_telemetry(doc: dict) -> Dict[str, object]:
    _require(doc, ("experiment",), BENCH_SCHEMA)
    meta = doc.get("meta")
    if meta is not None:
        _require(
            meta, ("timestamp_utc", "python", "cpu_count"), f"{BENCH_SCHEMA}.meta"
        )
    return {"experiment": doc["experiment"], "stamped": meta is not None}


def validate_artifact(path: str) -> Dict[str, object]:
    """Validates one exported file; raises :class:`ArtifactError` (or the
    underlying validator's :class:`ValueError`) on any violation and
    returns ``{"schema", "summary"}``."""
    kind, payload = load_artifact(path)
    if kind == "prometheus":
        return {
            "schema": "prometheus-text",
            "summary": validate_prometheus_text(payload),
        }
    schema = identify(payload)
    if schema == prof.TRACE_SCHEMA:
        summary = validate_chrome_trace(payload)
    elif schema == SCHEMA:
        summary = _validate_metrics(payload)
    elif schema == SEARCH_SCHEMA:
        summary = _validate_search_metrics(payload)
    elif schema == SERVE_SCHEMA:
        summary = _validate_serve_metrics(payload)
    elif schema == prof.PROFILE_SCHEMA:
        summary = _validate_profile(payload)
    elif schema == BENCH_SCHEMA:
        summary = _validate_bench_telemetry(payload)
    else:
        raise ArtifactError(f"unknown schema {schema!r}")
    return {"schema": schema, "summary": summary}


def summarize_artifact(path: str) -> str:
    """One screen of text describing a validated artifact."""
    kind, payload = load_artifact(path)
    if kind == "prometheus":
        summary = validate_prometheus_text(payload)
        return (
            f"prometheus text exposition: {summary['families']} families, "
            f"{summary['samples']} samples "
            f"({summary['histograms']} histograms)"
        )

    schema = identify(payload)
    lines: List[str] = [f"schema: {schema}"]
    if schema == prof.PROFILE_SCHEMA:
        lines.append(prof.render_report(payload, top=10))
    elif schema == prof.TRACE_SCHEMA:
        summary = validate_chrome_trace(payload)
        other = payload.get("otherData", {})
        lines.append(
            f"{summary['spans']} spans, {summary['instants']} instants, "
            f"{summary['counters']} counter samples on "
            f"{len(summary['tracks'])} tracks"
        )
        if other.get("makespan") is not None:
            lines.append(f"makespan: {other['makespan']} cycles")
        if other.get("trace_id"):
            lines.append(f"trace_id: {other['trace_id']}")
    elif schema == SCHEMA:
        accounting = payload["accounting"]
        lines.append(f"cycle accounting: {accounting['totals']}")
        lines.append(
            f"counters: { {k: v for k, v in sorted(payload['counters'].items())} }"
        )
    elif schema == SEARCH_SCHEMA:
        for key in ("workers", "wall_seconds", "evaluations", "cache_hits",
                    "cache_hit_rate"):
            if key in payload:
                lines.append(f"{key}: {payload[key]}")
    elif schema == SERVE_SCHEMA:
        lines.append(f"counters: {payload['counters']}")
        if "cache_hit_rate" in payload:
            lines.append(f"cache_hit_rate: {payload['cache_hit_rate']}")
    elif schema == BENCH_SCHEMA:
        for key in ("experiment", "makespan", "busy_fraction"):
            if key in payload:
                lines.append(f"{key}: {payload[key]}")
        meta = payload.get("meta")
        if meta:
            lines.append(
                f"meta: sha={meta.get('git_sha')} at "
                f"{meta.get('timestamp_utc')} "
                f"(py {meta.get('python')}, {meta.get('cpu_count')} cpus)"
            )
    else:
        raise ArtifactError(f"unknown schema {schema!r}")
    return "\n".join(lines)
