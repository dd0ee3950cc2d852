"""Combined state transition graph (CSTG, paper §4.3.1).

The CSTG merges the per-class ASTGs into one graph describing the whole
application: nodes are (class, abstract state) pairs; solid edges are the
transitions tasks cause; dashed edges are new-object edges from the task
that allocates to the abstract state of the freshly created object. The
graph is annotated with profile statistics — expected task execution time
per exit, exit probabilities, and expected allocation counts — forming the
Markov model the scheduling simulator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from typing import TYPE_CHECKING

from ..ir import instructions as ir
from ..sema.symbols import ProgramInfo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.profiler import ProfileData
from .astate import AState
from .astg import ASTG

NodeKey = Tuple[str, AState]  # (class name, abstract state)


@dataclass
class CSTGNode:
    class_name: str
    state: AState
    #: allocation sites that create objects in this state (paper: drawn with
    #: two concentric ellipses when non-empty)
    alloc_sites: List[int] = field(default_factory=list)
    #: lower-bound estimate of cycles to finish processing an object here
    est_time: float = 0.0

    @property
    def key(self) -> NodeKey:
        return (self.class_name, self.state)

    def label(self) -> str:
        return f"{self.class_name}:{self.state}"


@dataclass
class TransitionEdge:
    """Solid edge: a task moves an object between abstract states."""

    src: NodeKey
    dst: NodeKey
    task: str
    param_index: int
    exit_id: int
    avg_time: float = 0.0
    probability: float = 0.0

    def label(self) -> str:
        return f"{self.task}:<{self.avg_time:.0f},{self.probability:.0%}>"


@dataclass
class NewObjectEdge:
    """Dashed edge: a task allocation site creates objects in a state."""

    task: str
    exit_id: int
    site_id: int
    dst: NodeKey
    avg_count: float = 0.0


class CSTG:
    """The combined state transition graph with profile annotations."""

    def __init__(self, info: ProgramInfo):
        self.info = info
        self.nodes: Dict[NodeKey, CSTGNode] = {}
        self.transitions: List[TransitionEdge] = []
        self.new_edges: List[NewObjectEdge] = []

    # -- construction ----------------------------------------------------------

    @staticmethod
    def build(
        info: ProgramInfo,
        ir_program: ir.IRProgram,
        astgs: Dict[str, ASTG],
        profile: Optional["ProfileData"] = None,
    ) -> "CSTG":
        graph = CSTG(info)
        for astg in astgs.values():
            for state in astg.states:
                node = CSTGNode(class_name=astg.class_name, state=state)
                graph.nodes[node.key] = node
            for state, sites in astg.initial.items():
                graph.nodes[(astg.class_name, state)].alloc_sites = sorted(sites)
            for edge in astg.edges:
                graph.transitions.append(
                    TransitionEdge(
                        src=(astg.class_name, edge.src),
                        dst=(astg.class_name, edge.dst),
                        task=edge.task,
                        param_index=edge.param_index,
                        exit_id=edge.exit_id,
                    )
                )
        graph._build_new_edges(ir_program, astgs)
        if profile is not None:
            graph.annotate(profile)
        return graph

    def _build_new_edges(
        self, ir_program: ir.IRProgram, astgs: Dict[str, ASTG]
    ) -> None:
        from ..ir import cfg

        for task_name, func in ir_program.tasks.items():
            sites = ir_program.sites_in(task_name)
            if not sites:
                continue
            reachable = sorted(cfg.reachable_exits(func))
            for site in sites:
                if site.class_name not in astgs:
                    continue  # class never serves as a task parameter
                flags = [f for f, v in site.flag_inits.items() if v]
                tags = {t: 1 for t in site.tag_types}
                dst_state = AState.make(flags, tags)
                dst = (site.class_name, dst_state)
                if dst not in self.nodes:
                    continue
                for exit_id in reachable:
                    self.new_edges.append(
                        NewObjectEdge(
                            task=task_name,
                            exit_id=exit_id,
                            site_id=site.site_id,
                            dst=dst,
                        )
                    )

    # -- profile annotation -------------------------------------------------------

    def annotate(self, profile: "ProfileData") -> None:
        """Attaches profile statistics to edges and recomputes node times."""
        for edge in self.transitions:
            edge.avg_time = profile.avg_cycles(edge.task, edge.exit_id)
            edge.probability = profile.exit_probability(edge.task, edge.exit_id)
        kept_new_edges: List[NewObjectEdge] = []
        for edge in self.new_edges:
            allocs = profile.avg_allocs(edge.task, edge.exit_id)
            edge.avg_count = allocs.get(edge.site_id, 0.0)
            if edge.avg_count > 0 or profile.invocations(edge.task) == 0:
                kept_new_edges.append(edge)
        self.new_edges = kept_new_edges
        self._compute_node_times()

    def _compute_node_times(self) -> None:
        """Lower-bound completion-time estimate per node (min over paths to a
        terminal state of the sum of expected task times)."""
        INF = float("inf")
        est: Dict[NodeKey, float] = {}
        outgoing: Dict[NodeKey, List[TransitionEdge]] = {}
        for edge in self.transitions:
            outgoing.setdefault(edge.src, []).append(edge)
        for key in self.nodes:
            est[key] = 0.0 if key not in outgoing else INF
        changed = True
        while changed:
            changed = False
            for key, edges in outgoing.items():
                best = min(
                    (edge.avg_time + est.get(edge.dst, 0.0) for edge in edges),
                    default=0.0,
                )
                if best < est[key]:
                    est[key] = best
                    changed = True
        for key, node in self.nodes.items():
            node.est_time = est[key] if est[key] != INF else 0.0

    # -- queries ---------------------------------------------------------------------

    def transitions_of_task(self, task: str) -> List[TransitionEdge]:
        return [e for e in self.transitions if e.task == task]

    def new_edges_of_task(self, task: str) -> List[NewObjectEdge]:
        return [e for e in self.new_edges if e.task == task]

    def node(self, key: NodeKey) -> CSTGNode:
        return self.nodes[key]

    def task_names(self) -> List[str]:
        return sorted({e.task for e in self.transitions})

    def format(self) -> str:
        lines = ["CSTG:"]
        for key in sorted(self.nodes, key=lambda k: (k[0], k[1])):
            node = self.nodes[key]
            alloc = " (alloc)" if node.alloc_sites else ""
            lines.append(f"  {node.label()}: est={node.est_time:.0f}{alloc}")
        lines.append("  transitions:")
        for edge in self.transitions:
            lines.append(
                f"    {self.nodes[edge.src].label()} --{edge.task}#{edge.exit_id}"
                f"<{edge.avg_time:.0f},{edge.probability:.0%}>--> "
                f"{self.nodes[edge.dst].label()}"
            )
        lines.append("  new-object edges:")
        for edge in self.new_edges:
            lines.append(
                f"    {edge.task}#{edge.exit_id}@site{edge.site_id} ..{edge.avg_count:.1f}.. "
                f"{self.nodes[edge.dst].label()}"
            )
        return "\n".join(lines)
