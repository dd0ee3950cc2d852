"""Candidate layouts: the mapping of task instantiations to cores.

A layout is the unit the synthesis pipeline searches over (paper §4.3.4):
it specifies which tasks run on which cores (a task may be instantiated on
several cores — the data-parallelization and rate-matching rules create
replicas) and, implicitly, the routing tables — for each abstract object
state produced on a core, where to send the object. Multiple destinations
for the same state are served round-robin; multi-parameter tasks with a
common tag guard hash the tag to pick the instance, and other multi-
parameter tasks get exactly one instantiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..lang import ast
from ..lang.errors import ScheduleError
from ..analysis.astate import AState, guard_matches
from ..sema.symbols import ProgramInfo


def core_speed(speeds: Optional[Mapping[int, float]], core: int) -> float:
    """Relative speed of a core (1.0 = baseline; 2.0 executes a task in half
    the cycles). Supports the paper's §4.6 heterogeneous-cores extension —
    both the machine and the scheduling simulator scale task durations by
    this factor, so synthesis naturally steers work toward fast cores."""
    if not speeds:
        return 1.0
    return max(1e-3, float(speeds.get(core, 1.0)))


def scale_duration(cycles: int, speed: float) -> int:
    """Deterministically scales a cycle count by a core's speed."""
    if speed == 1.0:
        return cycles
    return max(1, int(round(cycles / speed)))


def mesh_coords(core: int, mesh_width: int) -> Tuple[int, int]:
    return core % mesh_width, core // mesh_width


def mesh_hops(a: int, b: int, mesh_width: int) -> int:
    ax, ay = mesh_coords(a, mesh_width)
    bx, by = mesh_coords(b, mesh_width)
    return abs(ax - bx) + abs(ay - by)


def torus_hops(a: int, b: int, mesh_width: int, num_cores: int) -> int:
    """2-D torus: each dimension wraps around."""
    height = max(1, (num_cores + mesh_width - 1) // mesh_width)
    ax, ay = mesh_coords(a, mesh_width)
    bx, by = mesh_coords(b, mesh_width)
    dx = abs(ax - bx)
    dy = abs(ay - by)
    return min(dx, mesh_width - dx) + min(dy, height - dy)


def ring_hops(a: int, b: int, num_cores: int) -> int:
    """1-D ring interconnect."""
    d = abs(a - b)
    return min(d, num_cores - d)


#: Supported interconnects (the paper's §4.6 "new network topologies"
#: extension: the simulation models the topology, and synthesis follows).
TOPOLOGIES = ("mesh", "torus", "ring")


def common_tag_binding(task_decl: ast.TaskDecl) -> Optional[str]:
    """The tag binding name shared by *all* parameters, if any.

    Such a task can be replicated across cores: the runtime hashes the tag
    instance to pick the core, so parameter objects carrying the same tag
    meet at the same instance (paper §4.3.4).
    """
    if not task_decl.params:
        return None
    shared: Optional[set] = None
    for param in task_decl.params:
        bindings = {g.binding for g in param.tag_guards}
        shared = bindings if shared is None else (shared & bindings)
        if not shared:
            return None
    return sorted(shared)[0]


@dataclass(frozen=True)
class Layout:
    """An immutable mapping of task names to the cores hosting them."""

    num_cores: int
    mesh_width: int
    instances: Tuple[Tuple[str, Tuple[int, ...]], ...]
    #: interconnect shape; see TOPOLOGIES
    topology: str = "mesh"

    # -- constructors --------------------------------------------------------

    @staticmethod
    def make(
        num_cores: int,
        mapping: Mapping[str, Iterable[int]],
        mesh_width: Optional[int] = None,
        topology: str = "mesh",
    ) -> "Layout":
        if mesh_width is None:
            mesh_width = _default_mesh_width(num_cores)
        if topology not in TOPOLOGIES:
            raise ScheduleError(f"unknown topology '{topology}'")
        items = tuple(
            (task, tuple(sorted(set(cores))))
            for task, cores in sorted(mapping.items())
        )
        return Layout(
            num_cores=num_cores,
            mesh_width=mesh_width,
            instances=items,
            topology=topology,
        )

    # -- interconnect ---------------------------------------------------------

    def hops(self, a: int, b: int) -> int:
        """Network distance between two cores under this layout's topology."""
        if self.topology == "torus":
            return torus_hops(a, b, self.mesh_width, self.num_cores)
        if self.topology == "ring":
            return ring_hops(a, b, self.num_cores)
        return mesh_hops(a, b, self.mesh_width)

    @staticmethod
    def single_core(task_names: Iterable[str]) -> "Layout":
        return Layout.make(1, {task: [0] for task in task_names})

    # -- accessors ------------------------------------------------------------

    def cores_of(self, task: str) -> Tuple[int, ...]:
        for name, cores in self.instances:
            if name == task:
                return cores
        return ()

    def tasks(self) -> List[str]:
        return [name for name, _ in self.instances]

    def tasks_on_core(self, core: int) -> List[str]:
        return [name for name, cores in self.instances if core in cores]

    def cores_used(self) -> Tuple[int, ...]:
        used = set()
        for _, cores in self.instances:
            used.update(cores)
        return tuple(sorted(used))

    def as_dict(self) -> Dict[str, Tuple[int, ...]]:
        return {name: cores for name, cores in self.instances}

    def total_instances(self) -> int:
        return sum(len(cores) for _, cores in self.instances)

    # -- isomorphism ------------------------------------------------------------

    def canonical_key(self) -> Tuple:
        """A key identical exactly for layouts that differ only by a
        renaming of cores (used to generate *non-isomorphic* mappings,
        §4.3.4). Cores are interchangeable, so a layout is characterized —
        up to renaming — by the multiset of per-core task sets."""
        per_core: Dict[int, List[str]] = {}
        for task, cores in self.instances:
            for core in cores:
                per_core.setdefault(core, []).append(task)
        return tuple(sorted(tuple(sorted(tasks)) for tasks in per_core.values()))

    # -- validation ----------------------------------------------------------------

    def validate(self, info: ProgramInfo) -> None:
        """Raises :class:`ScheduleError` if the layout is malformed."""
        mapped = set(self.tasks())
        declared = set(info.tasks)
        if mapped != declared:
            missing = declared - mapped
            extra = mapped - declared
            raise ScheduleError(
                f"layout task set mismatch (missing={sorted(missing)}, "
                f"unknown={sorted(extra)})"
            )
        for task, cores in self.instances:
            if not cores:
                raise ScheduleError(f"task '{task}' has no instances")
            for core in cores:
                if not (0 <= core < self.num_cores):
                    raise ScheduleError(
                        f"task '{task}' mapped to invalid core {core}"
                    )
            task_info = info.task_info(task)
            if len(cores) > 1 and len(task_info.decl.params) > 1:
                if common_tag_binding(task_info.decl) is None:
                    raise ScheduleError(
                        f"multi-parameter task '{task}' without a common tag "
                        "guard cannot be replicated"
                    )

    def describe(self) -> str:
        lines = [f"Layout on {self.num_cores} cores "
                 f"(mesh width {self.mesh_width}):"]
        for core in self.cores_used():
            tasks = ", ".join(self.tasks_on_core(core))
            lines.append(f"  core {core:3d}: {tasks}")
        return "\n".join(lines)


def _default_mesh_width(num_cores: int) -> int:
    width = 1
    while width * width < num_cores:
        width += 1
    return width


class Router:
    """Maps an object's (class, abstract state) to consuming task instances.

    Shared by the real runtime (:mod:`repro.runtime.machine`) and the
    high-level scheduling simulator (:mod:`repro.schedule.simulator`) so
    both see identical routing decisions.
    """

    def __init__(self, info: ProgramInfo, layout: Layout):
        self.info = info
        self.layout = layout
        self._match_cache: Dict[Tuple[str, AState], List[Tuple[str, int]]] = {}
        #: task -> cores, so per-object routing skips the linear scan in
        #: Layout.cores_of
        self._cores: Dict[str, Tuple[int, ...]] = dict(layout.instances)

    def consumers(self, class_name: str, state: AState) -> List[Tuple[str, int]]:
        """Returns (task, param_index) pairs whose guards the state satisfies."""
        key = (class_name, state)
        cached = self._match_cache.get(key)
        if cached is not None:
            return cached
        matches: List[Tuple[str, int]] = []
        for task_name in sorted(self.info.tasks):
            task_info = self.info.tasks[task_name]
            for param_index, param in enumerate(task_info.decl.params):
                if param.param_type.name != class_name:
                    continue
                if guard_matches(param, state):
                    matches.append((task_name, param_index))
        self._match_cache[key] = matches
        return matches

    def pick_core(
        self,
        task: str,
        rr_state: Dict[Tuple[int, str], int],
        sender_core: int,
        tag_hash: Optional[int] = None,
    ) -> int:
        """Chooses the destination instance of ``task`` for one object.

        Tag-constrained tasks hash the tag instance so related objects meet;
        otherwise destinations rotate round-robin per sending core (§4.3.4).
        """
        cores = self._cores.get(task, ())
        if len(cores) == 1:
            return cores[0]
        if tag_hash is not None:
            return cores[tag_hash % len(cores)]
        key = (sender_core, task)
        index = rr_state.get(key)
        if index is None:
            # Stagger each sender's rotation so its first send goes to its
            # own instance when it hosts one (the data-locality rule: an
            # object continuing its pipeline stays put), and different
            # senders fan out to different instances instead of all hitting
            # instance 0.
            if sender_core in cores:
                index = cores.index(sender_core)
            else:
                index = sender_core % len(cores)
        rr_state[key] = index + 1
        return cores[index % len(cores)]
