"""Core-group graph tests (paper §4.3.3)."""

from repro.core import annotated_cstg
from repro.schedule.coregroup import (
    build_group_graph,
    build_task_edges,
    task_is_replicable,
)


def group_tasks(graph):
    return {frozenset(g.tasks) for g in graph.groups}


class TestTaskEdges:
    def test_keyword_edges(self, keyword_compiled, keyword_profile):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        edges = build_task_edges(keyword_compiled.info, cstg, keyword_profile)
        pairs = {(e.src, e.dst, e.kind) for e in edges}
        assert ("startup", "processText", "new") in pairs
        assert ("processText", "mergeIntermediateResult", "transition") in pairs
        assert ("startup", "mergeIntermediateResult", "new") in pairs

    def test_new_edge_weight_is_expected_object_count(
        self, keyword_compiled, keyword_profile
    ):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        edges = build_task_edges(keyword_compiled.info, cstg, keyword_profile)
        text_edge = next(
            e for e in edges if e.src == "startup" and e.dst == "processText"
        )
        assert text_edge.objects_per_invocation == 6.0  # profiled with 6 sections

    def test_self_edge_on_cyclic_merge(self, keyword_compiled, keyword_profile):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        edges = build_task_edges(keyword_compiled.info, cstg, keyword_profile)
        assert any(
            e.src == e.dst == "mergeIntermediateResult" for e in edges
        )


class TestGrouping:
    def test_replicability(self, keyword_compiled):
        assert task_is_replicable(keyword_compiled.info, "processText")
        assert task_is_replicable(keyword_compiled.info, "startup")
        assert not task_is_replicable(
            keyword_compiled.info, "mergeIntermediateResult"
        )

    def test_tagged_multiparam_replicable(self, tagged_compiled):
        assert task_is_replicable(tagged_compiled.info, "finishsave")

    def test_locality_merges_transition_chain(
        self, keyword_compiled, keyword_profile
    ):
        # processText hands Text objects to merge via a transition edge, so
        # the data-locality rule keeps them in one core group.
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        graph = build_group_graph(keyword_compiled.info, cstg, keyword_profile)
        assert frozenset({"mergeIntermediateResult", "processText"}) in group_tasks(
            graph
        )
        assert frozenset({"startup"}) in group_tasks(graph)

    def test_group_with_any_replicable_task_is_replicable(
        self, keyword_compiled, keyword_profile
    ):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        graph = build_group_graph(keyword_compiled.info, cstg, keyword_profile)
        merged = next(
            g for g in graph.groups if "processText" in g.tasks
        )
        assert merged.replicable  # processText replicates; merge stays pinned

    def test_cyclic_flag(self, keyword_compiled, keyword_profile):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        graph = build_group_graph(keyword_compiled.info, cstg, keyword_profile)
        merged = next(g for g in graph.groups if "mergeIntermediateResult" in g.tasks)
        assert merged.cyclic  # the Results self-loop
        startup = next(g for g in graph.groups if "startup" in g.tasks)
        assert not startup.cyclic

    def test_group_edges_condensed(self, keyword_compiled, keyword_profile):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        graph = build_group_graph(keyword_compiled.info, cstg, keyword_profile)
        startup_gid = graph.group_of_task["startup"]
        worker_gid = graph.group_of_task["processText"]
        edges = [
            e
            for e in graph.edges
            if e.src_group == startup_gid and e.dst_group == worker_gid
        ]
        assert edges and all(e.kind == "new" for e in edges)

    def test_roots(self, keyword_compiled, keyword_profile):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        graph = build_group_graph(keyword_compiled.info, cstg, keyword_profile)
        roots = graph.roots()
        assert graph.group_of_task["startup"] in roots
