"""Combined state transition graph tests (paper Figure 3 structure)."""

import pytest

from repro.analysis.astate import AState
from repro.analysis.cstg import CSTG
from repro.core import annotated_cstg


class TestStructure:
    def test_nodes_cover_all_astg_states(self, keyword_compiled):
        cstg = keyword_compiled.cstg
        for astg in keyword_compiled.astgs.values():
            for state in astg.states:
                assert (astg.class_name, state) in cstg.nodes

    def test_alloc_sites_marked(self, keyword_compiled):
        cstg = keyword_compiled.cstg
        node = cstg.node(("Text", AState.make(["process"])))
        assert node.alloc_sites
        plain = cstg.node(("Text", AState.make([])))
        assert not plain.alloc_sites

    def test_new_edges_point_to_allocation_states(self, keyword_compiled):
        cstg = keyword_compiled.cstg
        startup_edges = cstg.new_edges_of_task("startup")
        destinations = {edge.dst for edge in startup_edges}
        assert ("Text", AState.make(["process"])) in destinations
        assert ("Results", AState.make([])) in destinations

    def test_transitions_of_task(self, keyword_compiled):
        edges = keyword_compiled.cstg.transitions_of_task("processText")
        assert len(edges) == 1
        assert edges[0].src == ("Text", AState.make(["process"]))
        assert edges[0].dst == ("Text", AState.make(["submit"]))

    def test_task_names(self, keyword_compiled):
        assert keyword_compiled.cstg.task_names() == [
            "mergeIntermediateResult",
            "processText",
            "startup",
        ]


class TestAnnotation:
    def test_probabilities_sum_to_one_per_task(self, keyword_compiled, keyword_profile):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        merge_edges = [
            e
            for e in cstg.transitions_of_task("mergeIntermediateResult")
            if e.src[0] == "Results"
        ]
        total = sum(e.probability for e in merge_edges)
        assert total == pytest.approx(1.0)

    def test_edge_times_positive(self, keyword_compiled, keyword_profile):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        for edge in cstg.transitions:
            assert edge.avg_time > 0

    def test_new_edge_counts(self, keyword_compiled, keyword_profile):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        text_edges = [
            e
            for e in cstg.new_edges_of_task("startup")
            if e.dst[0] == "Text"
        ]
        assert len(text_edges) == 1
        # The profile ran with 6 sections.
        assert text_edges[0].avg_count == pytest.approx(6.0)

    def test_node_time_estimates(self, keyword_compiled, keyword_profile):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        process_node = cstg.node(("Text", AState.make(["process"])))
        submit_node = cstg.node(("Text", AState.make(["submit"])))
        terminal = cstg.node(("Text", AState.make([])))
        # Estimates accumulate along the processing chain (Figure 3 labels).
        assert terminal.est_time == 0
        assert submit_node.est_time > 0
        assert process_node.est_time > submit_node.est_time

    def test_format_renders(self, keyword_compiled, keyword_profile):
        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        text = cstg.format()
        assert "Text:{process}" in text
        assert "new-object edges" in text

    def test_unannotated_graph_builds(self, keyword_compiled):
        cstg = CSTG.build(
            keyword_compiled.info,
            keyword_compiled.ir_program,
            keyword_compiled.astgs,
        )
        assert cstg.transitions
