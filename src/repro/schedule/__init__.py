"""Implementation synthesis: layouts, transformations, mapping search,
scheduling simulation, critical paths, and directed simulated annealing."""

from .anneal import AnnealConfig, AnnealResult
from .coregroup import CoreGroup, GroupGraph, build_group_graph, build_task_edges
from .critpath import CriticalPath, Move, compute_critical_path, suggest_moves
from .layout import Layout, Router, common_tag_binding, mesh_hops
from .mapping import (
    Candidate,
    candidate_to_layout,
    enumerate_candidates,
    enumerate_layouts,
    random_layouts,
    with_instance_added,
    with_instance_moved,
    with_instance_removed,
)
from .preprocess import GroupTree, build_group_tree, duplication_factors
from .rules import ReplicaSuggestion, replica_choice_sets, suggest_replicas
from .simulator import ExitChooser, SimResult, SimSession, TraceEvent, simulate

__all__ = [
    "AnnealConfig",
    "AnnealResult",
    "Candidate",
    "CoreGroup",
    "CriticalPath",
    "ExitChooser",
    "GroupGraph",
    "GroupTree",
    "Layout",
    "Move",
    "ReplicaSuggestion",
    "Router",
    "SimResult",
    "SimSession",
    "TraceEvent",
    "build_group_graph",
    "build_group_tree",
    "build_task_edges",
    "candidate_to_layout",
    "common_tag_binding",
    "compute_critical_path",
    "duplication_factors",
    "enumerate_candidates",
    "enumerate_layouts",
    "mesh_hops",
    "random_layouts",
    "replica_choice_sets",
    "simulate",
    "suggest_moves",
    "suggest_replicas",
    "with_instance_added",
    "with_instance_moved",
    "with_instance_removed",
]
