"""Distributed multi-host layout search.

The checkpoint substrate (:mod:`repro.search.storage`) promoted from
crash recovery to a distribution protocol: a :class:`DistCoordinator`
decomposes a synthesis job into independent shards (annealing restarts),
holds every dispatched shard under an EWMA lease, steals work from
stragglers, and merges results in shard-id order so the incumbent
trajectory — and the final layout — is bit-identical to a single-host
serial run of the same shard list, no matter how many workers join,
crash, hang, or disconnect. See ``docs/DISTRIBUTED.md``.
"""

from .shards import (
    DistResult,
    JobContext,
    ShardResult,
    ShardSpec,
    describe_dist_result,
    execute_shard,
    make_restart_shards,
    merge_shard_results,
    result_key,
    run_serial_baseline,
)
from .messages import DIST_PROTOCOL, DistProtocolError
from .coordinator import (
    DistCoordinator,
    DistError,
    DistStats,
    LeasePolicy,
    run_dist_search,
)
from .worker import WorkerStats, run_dist_worker
from .chaos import dist_plan, scripted_plan

__all__ = [
    "DIST_PROTOCOL",
    "DistCoordinator",
    "DistError",
    "DistProtocolError",
    "DistResult",
    "DistStats",
    "JobContext",
    "LeasePolicy",
    "ShardResult",
    "ShardSpec",
    "WorkerStats",
    "describe_dist_result",
    "dist_plan",
    "execute_shard",
    "make_restart_shards",
    "merge_shard_results",
    "result_key",
    "run_dist_search",
    "run_dist_worker",
    "run_serial_baseline",
    "scripted_plan",
]
