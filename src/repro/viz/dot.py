"""Graphviz DOT emitters for the paper's figures.

* :func:`cstg_to_dot` — Figure 3: the CSTG with profile annotations (double
  ellipses for allocatable states, solid task-transition edges labelled
  ``task:<time,probability>``, dashed new-object edges labelled with
  expected counts).
* :func:`trace_to_dot` — Figure 6: the simulated execution trace with the
  critical path highlighted.
* :func:`taskflow_to_dot` — Figure 8: the task-flow graph (tasks as nodes,
  dataflow edges between them).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..analysis.cstg import CSTG
from ..schedule.coregroup import GroupGraph, TaskEdge
from ..schedule.critpath import CriticalPath
from ..schedule.simulator import SimResult


def _quote(text: str) -> str:
    return '"' + text.replace('"', r"\"") + '"'


def cstg_to_dot(cstg: CSTG, title: str = "CSTG") -> str:
    lines = [f"digraph {_quote(title)} {{", "  rankdir=TB;"]
    node_ids: Dict = {}
    for index, (key, node) in enumerate(sorted(cstg.nodes.items())):
        node_ids[key] = f"n{index}"
        shape = "doublecircle" if node.alloc_sites else "ellipse"
        label = f"{node.class_name}\\n{node.state}:{node.est_time:.0f}"
        lines.append(
            f"  n{index} [shape={shape}, label={_quote(label)}];"
        )
    for edge in cstg.transitions:
        label = f"{edge.task}:<{edge.avg_time:.0f},{edge.probability:.0%}>"
        lines.append(
            f"  {node_ids[edge.src]} -> {node_ids[edge.dst]} "
            f"[label={_quote(label)}];"
        )
    for index, new_edge in enumerate(cstg.new_edges):
        task_node = f"t{index}"
        lines.append(
            f"  {task_node} [shape=box, label={_quote(new_edge.task)}];"
        )
        lines.append(
            f"  {task_node} -> {node_ids[new_edge.dst]} "
            f"[style=dashed, label={_quote(f'{new_edge.avg_count:.1f}')}];"
        )
    lines.append("}")
    return "\n".join(lines)


def trace_to_dot(
    result: SimResult,
    path: Optional[CriticalPath] = None,
    title: str = "trace",
) -> str:
    """Execution-trace graph in the style of Figure 6; critical-path edges
    are drawn dashed/bold."""
    critical: Set[int] = set()
    if path is not None:
        critical = {step.index for step in path.steps}
    lines = [f"digraph {_quote(title)} {{", "  rankdir=TB;"]
    for event in result.trace:
        color = ", color=red, penwidth=2" if event.event_id in critical else ""
        label = (
            f"{event.task}\\ncore {event.core}\\n[{event.start},{event.end}]"
        )
        lines.append(f"  e{event.event_id} [shape=box, label={_quote(label)}{color}];")
    for event in result.trace:
        for producer in event.producers:
            if producer is None:
                continue
            style = (
                "style=dashed, color=red, penwidth=2"
                if producer in critical and event.event_id in critical
                else "style=solid"
            )
            lines.append(f"  e{producer} -> e{event.event_id} [{style}];")
    lines.append("}")
    return "\n".join(lines)


def taskflow_to_dot(
    edges: List[TaskEdge],
    groups: Optional[GroupGraph] = None,
    title: str = "taskflow",
) -> str:
    """Task-flow diagram in the style of Figure 8."""
    tasks: Set[str] = set()
    for edge in edges:
        tasks.add(edge.src)
        tasks.add(edge.dst)
    lines = [f"digraph {_quote(title)} {{", "  rankdir=LR;"]
    if groups is not None:
        for group in groups.groups:
            members = sorted(t for t in group.tasks if t in tasks)
            if len(members) > 1:
                lines.append(f"  subgraph cluster_g{group.group_id} {{")
                lines.append("    style=dashed;")
                for task in members:
                    lines.append(f"    {_quote(task)};")
                lines.append("  }")
    for task in sorted(tasks):
        lines.append(f"  {_quote(task)} [shape=box];")
    for edge in edges:
        style = "dashed" if edge.kind == "new" else "solid"
        lines.append(
            f"  {_quote(edge.src)} -> {_quote(edge.dst)} "
            f"[style={style}, label={_quote(f'{edge.objects_per_invocation:.1f}')}];"
        )
    lines.append("}")
    return "\n".join(lines)
