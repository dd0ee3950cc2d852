"""Checkpoint/resume for directed simulated annealing.

A multi-hour search (the paper's Fig. 10 workload at scale) must survive
an interrupted process. :class:`SearchCheckpoint` captures the *complete*
annealing state at an iteration boundary — RNG state, incumbent, the
candidate set for the next iteration, budget counters, patience, history,
and the simulation cache — so
:class:`repro.schedule.anneal.DirectedSimulatedAnnealing` can resume it
and produce a run bit-identical to an uninterrupted one (test-enforced
per benchmark).

File format (``repro.search/checkpoint-v7``)
--------------------------------------------

One ASCII JSON header line, then the pickled payload::

    {"format": "repro.search/checkpoint-v7", "digest": "<sha256>", ...}\n
    <pickle bytes>

The atomic-write + digest mechanics (tmp + fsync + rename + directory
fsync; sha256 over the payload so truncation and corruption are detected
before unpickling) live in :mod:`repro.search.storage`, shared with the
serving layer's persistent simulation cache — one hardened writer for
every on-disk format.

Compatibility policy: the format version is bumped on any payload shape
change and old versions are *not* migrated — a checkpoint is a crash
artifact, not an archive (v3 dropped the delta re-simulation state v2
carried; v4 dropped the early-cutoff prune counter; v5 stores each
cached ``SimResult``'s trace as a :class:`~repro.schedule.simulator.SimTrace`
of columns, where v4 held a list of ``TraceEvent`` objects; v6 traces have
eight columns, not twelve, and the anneal config four fields fewer, so
its digest differs; v7 drops the initial candidate set, which nothing
read, and requires the schedule fingerprint). Resuming also
re-checks that the anneal schedule matches the one the checkpoint was
written under, because resuming under different search parameters would
silently diverge from both runs; a checkpoint with an empty schedule
fingerprint is refused the same way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..lang.errors import BambooError
from ..schedule.layout import Layout
from .storage import StorageError, read_pickle_record, write_pickle_record

CHECKPOINT_FORMAT = "repro.search/checkpoint-v7"


class CheckpointError(BambooError):
    """A checkpoint file is missing, corrupt, or incompatible."""


@dataclass
class SearchCheckpoint:
    """The annealer's whole progress. A search updates one in place
    (``DirectedSimulatedAnnealing.state``); a copy carrying the RNG and
    cache snapshots is the checkpoint of one iteration boundary."""

    #: completed iterations at this boundary
    iteration: int
    #: ``random.Random.getstate()`` of the annealer's RNG (None in the
    #: live state, which the RNG itself holds)
    rng_state: Optional[Tuple]
    best_layout: Layout
    best_cycles: int
    #: the candidate set entering the next iteration
    candidates: List[Layout]
    history: List[int]
    patience: int
    #: budget counters (real simulations / cache hits)
    evaluations: int
    cache_hits: int
    #: fingerprint of the anneal schedule this state was produced under;
    #: a resume refuses any other, an empty one included
    config_digest: str
    #: ``SimCache.state()`` snapshot, or None when the cache is off
    cache_state: Optional[Dict[str, object]] = None
    #: checkpoints written up to (and including) this boundary
    checkpoints_written: int = 0
    #: the CheckpointWritten events up to this boundary
    checkpoint_events: List[object] = field(default_factory=list)


def config_digest(config) -> str:
    """A stable fingerprint of an :class:`AnnealConfig`, used to refuse
    resuming under different search parameters. ``max_iterations`` is
    excluded: it is a pure stop condition that never affects the
    per-iteration trajectory, so extending an interrupted short run into
    a longer one is a supported (and test-exercised) resume."""
    from dataclasses import asdict

    fields = asdict(config)
    fields.pop("max_iterations", None)
    payload = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def write_checkpoint(path: str, checkpoint: SearchCheckpoint) -> None:
    """Atomically serializes ``checkpoint`` to ``path``."""
    write_pickle_record(
        path,
        CHECKPOINT_FORMAT,
        checkpoint,
        extra_header={
            "iteration": checkpoint.iteration,
            "evaluations": checkpoint.evaluations,
        },
    )


def read_checkpoint(path: str) -> SearchCheckpoint:
    """Loads and verifies a checkpoint; raises :class:`CheckpointError`
    on any missing, corrupt, or incompatible file."""
    try:
        _, checkpoint = read_pickle_record(
            path,
            CHECKPOINT_FORMAT,
            expected_type=SearchCheckpoint,
            kind="checkpoint",
            long_kind="search checkpoint",
        )
    except StorageError as exc:
        raise CheckpointError(str(exc)) from exc
    return checkpoint
