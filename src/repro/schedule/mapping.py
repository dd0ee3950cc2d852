"""Mapping core groups onto physical cores (paper §4.3.4).

A *candidate implementation* is (1) a replica count for every core group
(drawn from the rule-derived choice sets) and (2) a partition of the groups
into core *pools* — groups in the same pool time-share the same cores.
The enumerator walks partitions as restricted-growth strings, which yields
exactly the non-isomorphic mappings (core identities are interchangeable up
to mesh position); a configurable skip probability randomly prunes subsets
of the space, reproducing the paper's randomized backtracking search.

The module also provides the local layout edits (migrate / replicate /
de-replicate a task instance) that directed simulated annealing applies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..lang.errors import ScheduleError
from ..sema.symbols import ProgramInfo
from .coregroup import GroupGraph
from .layout import Layout


@dataclass(frozen=True)
class Candidate:
    """One point in the mapping search space."""

    replicas: Tuple[int, ...]  # per group_id
    partition: Tuple[int, ...]  # restricted growth string over group ids


def candidate_to_layout(
    info: ProgramInfo,
    graph: GroupGraph,
    candidate: Candidate,
    num_cores: int,
    mesh_width: Optional[int] = None,
) -> Optional[Layout]:
    """Realizes a candidate as a concrete layout, or ``None`` if it does not
    fit on the machine."""
    num_pools = max(candidate.partition) + 1
    pool_sizes = [0] * num_pools
    for group_id, pool in enumerate(candidate.partition):
        pool_sizes[pool] = max(pool_sizes[pool], candidate.replicas[group_id])
    if sum(pool_sizes) > num_cores:
        return None
    pool_start = [0] * num_pools
    offset = 0
    for pool in range(num_pools):
        pool_start[pool] = offset
        offset += pool_sizes[pool]
    from .coregroup import task_is_replicable

    mapping: Dict[str, List[int]] = {}
    for group in graph.groups:
        pool = candidate.partition[group.group_id]
        start = pool_start[pool]
        count = candidate.replicas[group.group_id]
        cores = [start + i for i in range(count)]
        for task in sorted(group.tasks):
            # Replicable tasks span the group's replicas; tasks the §4.3.4
            # rule pins (multi-parameter, no common tag) anchor to the
            # group's first core.
            if task_is_replicable(info, task):
                mapping[task] = cores
            else:
                mapping[task] = [start]
    layout = Layout.make(num_cores, mapping, mesh_width)
    try:
        layout.validate(info)
    except ScheduleError:
        return None
    return layout


def _partitions(count: int) -> Iterator[Tuple[int, ...]]:
    """All restricted growth strings of length ``count`` (set partitions)."""
    rgs = [0] * count

    def rec(index: int, max_label: int):
        if index == count:
            yield tuple(rgs)
            return
        for label in range(max_label + 2):
            rgs[index] = label
            yield from rec(index + 1, max(max_label, label))

    if count == 0:
        yield ()
        return
    yield from rec(1, 0)


def enumerate_candidates(
    graph: GroupGraph,
    replica_choices: Dict[int, List[int]],
    rng: Optional[random.Random] = None,
    skip_probability: float = 0.0,
) -> Iterator[Candidate]:
    """Enumerates candidates, optionally skipping random subsets.

    With ``skip_probability == 0`` the walk is exhaustive (used by the
    Figure 10 experiment); otherwise each replica-vector subtree is skipped
    with the given probability, giving a random sample of non-isomorphic
    candidates.
    """
    group_ids = [g.group_id for g in graph.groups]
    choice_lists = [replica_choices[g] for g in group_ids]

    def rec(index: int, chosen: List[int]) -> Iterator[Tuple[int, ...]]:
        if index == len(choice_lists):
            yield tuple(chosen)
            return
        for count in choice_lists[index]:
            if rng is not None and skip_probability > 0:
                if rng.random() < skip_probability:
                    continue
            chosen.append(count)
            yield from rec(index + 1, chosen)
            chosen.pop()

    for replicas in rec(0, []):
        for partition in _partitions(len(group_ids)):
            if rng is not None and skip_probability > 0:
                if rng.random() < skip_probability:
                    continue
            yield Candidate(replicas=replicas, partition=partition)


def enumerate_layouts(
    info: ProgramInfo,
    graph: GroupGraph,
    replica_choices: Dict[int, List[int]],
    num_cores: int,
    mesh_width: Optional[int] = None,
    limit: Optional[int] = None,
    rng: Optional[random.Random] = None,
    skip_probability: float = 0.0,
) -> List[Layout]:
    """Enumerates candidate layouts, deduplicated by canonical key."""
    seen = set()
    layouts: List[Layout] = []
    for candidate in enumerate_candidates(
        graph, replica_choices, rng=rng, skip_probability=skip_probability
    ):
        layout = candidate_to_layout(info, graph, candidate, num_cores, mesh_width)
        if layout is None:
            continue
        key = layout.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        layouts.append(layout)
        if limit is not None and len(layouts) >= limit:
            break
    return layouts


def random_layouts(
    info: ProgramInfo,
    graph: GroupGraph,
    replica_choices: Dict[int, List[int]],
    num_cores: int,
    count: int,
    rng: random.Random,
    mesh_width: Optional[int] = None,
) -> List[Layout]:
    """Samples ``count`` distinct random candidate layouts."""
    group_ids = [g.group_id for g in graph.groups]
    seen = set()
    layouts: List[Layout] = []
    attempts = 0
    while len(layouts) < count and attempts < count * 200:
        attempts += 1
        replicas = tuple(
            rng.choice(replica_choices[g]) for g in group_ids
        )
        partition = _random_partition(len(group_ids), rng)
        layout = candidate_to_layout(
            info,
            graph,
            Candidate(replicas=replicas, partition=partition),
            num_cores,
            mesh_width,
        )
        if layout is None:
            continue
        key = layout.canonical_key()
        if key in seen:
            continue
        seen.add(key)
        layouts.append(layout)
    return layouts


def _random_partition(count: int, rng: random.Random) -> Tuple[int, ...]:
    rgs: List[int] = []
    max_label = -1
    for _ in range(count):
        label = rng.randint(0, max_label + 1)
        rgs.append(label)
        max_label = max(max_label, label)
    return tuple(rgs)


def seed_layouts(
    info: ProgramInfo,
    graph: GroupGraph,
    suggestions: Dict[int, "object"],
    num_cores: int,
    mesh_width: Optional[int] = None,
) -> List[Layout]:
    """Deterministic rule-based starting layouts.

    Realizes the transformation rules directly (before any search): the
    suggested replica counts with (a) every group in its own core pool and
    (b) all replicable groups sharing one pool with pinned groups set
    apart. Replica counts are scaled down (largest first) until the layout
    fits the machine.
    """
    counts = {gid: s.replicas for gid, s in suggestions.items()}
    layouts: List[Layout] = []
    group_ids = [g.group_id for g in graph.groups]

    def scaled(replicas: Dict[int, int], pools: Dict[int, int]) -> Optional[Layout]:
        replicas = dict(replicas)
        while True:
            sizes: Dict[int, int] = {}
            for gid in group_ids:
                pool = pools[gid]
                sizes[pool] = max(sizes.get(pool, 0), replicas[gid])
            if sum(sizes.values()) <= num_cores:
                break
            largest = max(group_ids, key=lambda g: replicas[g])
            if replicas[largest] <= 1:
                return None
            replicas[largest] -= 1
        partition = tuple(pools[gid] for gid in group_ids)
        # Normalize to a restricted-growth string.
        relabel: Dict[int, int] = {}
        rgs = []
        for label in partition:
            if label not in relabel:
                relabel[label] = len(relabel)
            rgs.append(relabel[label])
        return candidate_to_layout(
            info,
            graph,
            Candidate(
                replicas=tuple(replicas[gid] for gid in group_ids),
                partition=tuple(rgs),
            ),
            num_cores,
            mesh_width,
        )

    # (a) each group in its own pool
    separate = scaled(counts, {gid: gid for gid in group_ids})
    if separate is not None:
        layouts.append(separate)
    # (b) replicable groups share one pool; pinned groups get their own
    pools: Dict[int, int] = {}
    next_pool = 1
    for group in graph.groups:
        if group.replicable and counts[group.group_id] > 1:
            pools[group.group_id] = 0
        else:
            pools[group.group_id] = next_pool
            next_pool += 1
    pooled = scaled(counts, pools)
    if pooled is not None:
        layouts.append(pooled)
    # (c) everything in one pool (maximal locality)
    one_pool = scaled(counts, {gid: 0 for gid in group_ids})
    if one_pool is not None:
        layouts.append(one_pool)
    # Deduplicate.
    seen = set()
    unique: List[Layout] = []
    for layout in layouts:
        key = layout.canonical_key()
        if key not in seen:
            seen.add(key)
            unique.append(layout)
    return unique


# ---------------------------------------------------------------------------
# Local layout edits for directed simulated annealing (§4.5.2)
# ---------------------------------------------------------------------------


def with_instance_moved(
    layout: Layout, task: str, from_core: int, to_core: int
) -> Layout:
    """Migrates one instance of ``task`` from one core to another."""
    mapping = {t: list(cores) for t, cores in layout.as_dict().items()}
    cores = mapping[task]
    if from_core not in cores:
        raise ScheduleError(f"task '{task}' has no instance on core {from_core}")
    cores.remove(from_core)
    if to_core not in cores:
        cores.append(to_core)
    return Layout.make(
        layout.num_cores, mapping, layout.mesh_width, layout.topology
    )


def with_core_failed(
    layout: Layout, dead_core: int, survivors: Optional[List[int]] = None
) -> Layout:
    """Evicts a core from a layout: every task instance on ``dead_core``
    moves to the nearest surviving core (ties break toward the lowest core
    id, so the result is deterministic).

    This is the degraded-mode counterpart of the DSA edits above — the
    fault-recovery engine applies it when a core crashes, and
    :meth:`repro.core.adaptive.AdaptiveExecutable.degrade` uses it to keep
    an executable running on a partially failed processor until the next
    field re-optimization (§7).
    """
    if survivors is None:
        survivors = [c for c in layout.cores_used() if c != dead_core]
    survivors = [c for c in survivors if c != dead_core]
    if not survivors:
        raise ScheduleError(f"no surviving cores to absorb core {dead_core}")
    result = layout
    target = min(survivors, key=lambda c: (layout.hops(dead_core, c), c))
    for task in layout.tasks():
        if dead_core in result.cores_of(task):
            result = with_instance_moved(result, task, dead_core, target)
    return result


def with_instance_added(layout: Layout, task: str, core: int) -> Layout:
    mapping = {t: list(cores) for t, cores in layout.as_dict().items()}
    if core not in mapping[task]:
        mapping[task].append(core)
    return Layout.make(
        layout.num_cores, mapping, layout.mesh_width, layout.topology
    )
