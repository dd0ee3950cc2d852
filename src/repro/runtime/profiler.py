"""Profile collection and statistics (paper §4.3.1).

A profile records, per task invocation: which taskexit the invocation took,
its cycle count, and how many parameter objects it allocated at each
allocation site. The compiler turns the raw counts into the statistics the
synthesis pipeline needs: average execution time per exit, the probability
of each exit, and the average number of new objects per exit — together
these form the Markov model of the program's execution.

Profiles are gathered by running the program on the machine simulator
(usually on a single core, which the paper uses to bootstrap synthesis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class ExitStats:
    """Aggregate statistics for one (task, exit point) pair."""

    count: int = 0
    total_cycles: int = 0
    allocs: Dict[int, int] = field(default_factory=dict)  # site -> total objects

    @property
    def avg_cycles(self) -> float:
        return self.total_cycles / self.count if self.count else 0.0

    def avg_allocs(self) -> Dict[int, float]:
        if not self.count:
            return {}
        return {site: total / self.count for site, total in self.allocs.items()}


#: Cap on the recorded exit sequence per task (memory guard).
MAX_SEQUENCE = 200_000


@dataclass
class TaskStats:
    invocations: int = 0
    exits: Dict[int, ExitStats] = field(default_factory=dict)
    #: the exit ids in invocation order — replaying it keeps the simulated
    #: per-exit counts exactly equal to the profile-predicted counts at
    #: every prefix (the optimum of the paper's count-matching criterion)
    sequence: List[int] = field(default_factory=list)

    def exit_probability(self, exit_id: int) -> float:
        if not self.invocations:
            return 0.0
        stats = self.exits.get(exit_id)
        return stats.count / self.invocations if stats else 0.0


class ProfileData:
    """Processed profile statistics for a whole program run."""

    def __init__(self):
        self.tasks: Dict[str, TaskStats] = {}
        #: total simulated cycles of the profiled run (informational)
        self.run_cycles: int = 0

    # -- recording ------------------------------------------------------------

    def record_invocation(
        self,
        task: str,
        exit_id: int,
        cycles: int,
        allocs: Optional[Dict[int, int]] = None,
    ) -> None:
        task_stats = self.tasks.setdefault(task, TaskStats())
        task_stats.invocations += 1
        if len(task_stats.sequence) < MAX_SEQUENCE:
            task_stats.sequence.append(exit_id)
        exit_stats = task_stats.exits.setdefault(exit_id, ExitStats())
        exit_stats.count += 1
        exit_stats.total_cycles += cycles
        for site, count in (allocs or {}).items():
            exit_stats.allocs[site] = exit_stats.allocs.get(site, 0) + count

    # -- queries ---------------------------------------------------------------

    def task_names(self) -> List[str]:
        return sorted(self.tasks)

    def invocations(self, task: str) -> int:
        stats = self.tasks.get(task)
        return stats.invocations if stats else 0

    def exit_ids(self, task: str) -> List[int]:
        stats = self.tasks.get(task)
        return sorted(stats.exits) if stats else []

    def exit_probability(self, task: str, exit_id: int) -> float:
        stats = self.tasks.get(task)
        return stats.exit_probability(exit_id) if stats else 0.0

    def exit_sequence(self, task: str) -> List[int]:
        stats = self.tasks.get(task)
        return stats.sequence if stats else []

    def exit_count(self, task: str, exit_id: int) -> int:
        stats = self.tasks.get(task)
        if not stats or exit_id not in stats.exits:
            return 0
        return stats.exits[exit_id].count

    def avg_cycles(self, task: str, exit_id: int) -> float:
        stats = self.tasks.get(task)
        if not stats or exit_id not in stats.exits:
            return 0.0
        return stats.exits[exit_id].avg_cycles

    def avg_task_cycles(self, task: str) -> float:
        """Average cycles over all exits, weighted by exit frequency."""
        stats = self.tasks.get(task)
        if not stats or not stats.invocations:
            return 0.0
        total = sum(e.total_cycles for e in stats.exits.values())
        return total / stats.invocations

    def avg_allocs(self, task: str, exit_id: int) -> Dict[int, float]:
        stats = self.tasks.get(task)
        if not stats or exit_id not in stats.exits:
            return {}
        return stats.exits[exit_id].avg_allocs()
