"""Checkpoint/resume for directed simulated annealing.

A multi-hour search (the paper's Fig. 10 workload at scale) must survive
an interrupted process. :class:`SearchCheckpoint` captures the *complete*
annealing state at an iteration boundary — RNG state, incumbent, the
candidate set for the next iteration, budget counters, patience, history,
and the simulation cache — so
:class:`repro.schedule.anneal.DirectedSimulatedAnnealing` can resume it
and produce a run bit-identical to an uninterrupted one (test-enforced
per benchmark).

File format (``repro.search/checkpoint-v4``)
--------------------------------------------

One ASCII JSON header line, then the pickled payload::

    {"format": "repro.search/checkpoint-v4", "digest": "<sha256>", ...}\n
    <pickle bytes>

The atomic-write + digest mechanics (tmp + fsync + rename + directory
fsync; sha256 over the payload so truncation and corruption are detected
before unpickling) live in :mod:`repro.search.storage`, shared with the
serving layer's persistent simulation cache — one hardened writer for
every on-disk format.

Compatibility policy: the format version is bumped on any payload shape
change and old versions are *not* migrated — a checkpoint is a crash
artifact, not an archive (v3 dropped the delta re-simulation state v2
carried; v4 dropped the early-cutoff prune counter). Resuming also
re-checks that the anneal schedule matches the one the checkpoint was
written under, because resuming under different search parameters would
silently diverge from both runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..lang.errors import BambooError
from ..schedule.layout import Layout
from .storage import StorageError, read_pickle_record, write_pickle_record

CHECKPOINT_FORMAT = "repro.search/checkpoint-v4"


class CheckpointError(BambooError):
    """A checkpoint file is missing, corrupt, or incompatible."""


@dataclass
class SearchCheckpoint:
    """Full annealing state at one iteration boundary."""

    #: completed iterations at this boundary
    iteration: int
    #: ``random.Random.getstate()`` of the annealer's RNG
    rng_state: Tuple
    best_layout: Layout
    best_cycles: int
    #: the candidate set entering the next iteration
    candidates: List[Layout]
    history: List[int]
    patience: int
    #: budget counters (real simulations / cache hits)
    evaluations: int
    cache_hits: int
    initial_layouts: List[Layout]
    #: ``SimCache.state()`` snapshot, or None when the cache is off
    cache_state: Optional[Dict[str, object]] = None
    #: periodic checkpoints written up to (and including) this boundary
    checkpoints_written: int = 0
    #: serialized CheckpointWritten events up to this boundary
    checkpoint_events: List[Dict[str, object]] = field(default_factory=list)
    #: fingerprint of the anneal schedule this state was produced under
    config_digest: str = ""


def config_digest(config) -> str:
    """A stable fingerprint of an :class:`AnnealConfig`, used to refuse
    resuming under different search parameters. Checkpoint cadence fields
    are excluded — re-checkpointing differently is legal — and so is
    ``max_iterations``: it is a pure stop condition that never affects
    the per-iteration trajectory, so extending an interrupted short run
    into a longer one is a supported (and test-exercised) resume."""
    from dataclasses import asdict

    fields = asdict(config)
    fields.pop("checkpoint_every", None)
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
        raise CheckpointError(str(exc))
    return checkpoint
