"""Mapping search and rule tests (paper §4.3.3-4.3.4)."""

import random

import pytest

from repro.core import annotated_cstg
from repro.schedule.coregroup import build_group_graph
from repro.schedule.layout import Layout
from repro.schedule.mapping import (
    Candidate,
    _partitions,
    candidate_to_layout,
    enumerate_layouts,
    random_layouts,
    seed_layouts,
    with_instance_added,
    with_instance_moved,
)
from repro.schedule.rules import replica_choice_sets, suggest_replicas
from repro.lang.errors import ScheduleError


@pytest.fixture(scope="module")
def keyword_graph(keyword_compiled, keyword_profile):
    cstg = annotated_cstg(keyword_compiled, keyword_profile)
    return build_group_graph(keyword_compiled.info, cstg, keyword_profile)


class TestRules:
    def test_data_parallel_suggestion(
        self, keyword_compiled, keyword_profile, keyword_graph
    ):
        suggestions = suggest_replicas(
            keyword_compiled.info, keyword_graph, keyword_profile, 8
        )
        worker_gid = keyword_graph.group_of_task["processText"]
        assert suggestions[worker_gid].rule == "data-parallel"
        # Per startup invocation the profile saw 6 Text objects plus the
        # Results object flow into the worker group: m = 7.
        assert suggestions[worker_gid].replicas == 7

    def test_replicas_capped_at_cores(
        self, keyword_compiled, keyword_profile, keyword_graph
    ):
        suggestions = suggest_replicas(
            keyword_compiled.info, keyword_graph, keyword_profile, 4
        )
        worker_gid = keyword_graph.group_of_task["processText"]
        assert suggestions[worker_gid].replicas <= 4

    def test_locality_when_rules_disabled(
        self, keyword_compiled, keyword_profile, keyword_graph
    ):
        suggestions = suggest_replicas(
            keyword_compiled.info,
            keyword_graph,
            keyword_profile,
            8,
            enable_data_parallel=False,
            enable_rate_match=False,
        )
        assert all(s.replicas == 1 for s in suggestions.values())

    def test_choice_sets_contain_one_and_suggestion(
        self, keyword_compiled, keyword_profile, keyword_graph
    ):
        suggestions = suggest_replicas(
            keyword_compiled.info, keyword_graph, keyword_profile, 8
        )
        choices = replica_choice_sets(suggestions, keyword_graph, 8)
        worker_gid = keyword_graph.group_of_task["processText"]
        assert 1 in choices[worker_gid]
        assert suggestions[worker_gid].replicas in choices[worker_gid]


class TestPartitions:
    @pytest.mark.parametrize(
        "count,bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]
    )
    def test_bell_numbers(self, count, bell):
        assert len(list(_partitions(count))) == bell

    def test_restricted_growth_property(self):
        for partition in _partitions(4):
            assert partition[0] == 0
            for index in range(1, len(partition)):
                assert partition[index] <= max(partition[:index]) + 1


class TestCandidateToLayout:
    def test_simple_candidate(self, keyword_compiled, keyword_graph):
        group_ids = [g.group_id for g in keyword_graph.groups]
        replicas = tuple(
            4 if "processText" in keyword_graph.group(g).tasks else 1
            for g in group_ids
        )
        partition = tuple(range(len(group_ids)))
        layout = candidate_to_layout(
            keyword_compiled.info,
            keyword_graph,
            Candidate(replicas=replicas, partition=partition),
            8,
        )
        assert layout is not None
        assert len(layout.cores_of("processText")) == 4
        # Pinned merge task anchors to its pool's first core.
        assert len(layout.cores_of("mergeIntermediateResult")) == 1

    def test_overflow_returns_none(self, keyword_compiled, keyword_graph):
        group_ids = [g.group_id for g in keyword_graph.groups]
        replicas = tuple(10 for _ in group_ids)
        partition = tuple(range(len(group_ids)))
        layout = candidate_to_layout(
            keyword_compiled.info,
            keyword_graph,
            Candidate(replicas=replicas, partition=partition),
            4,
        )
        assert layout is None

    def test_pooled_groups_share_cores(self, keyword_compiled, keyword_graph):
        group_ids = [g.group_id for g in keyword_graph.groups]
        replicas = tuple(1 for _ in group_ids)
        partition = tuple(0 for _ in group_ids)
        layout = candidate_to_layout(
            keyword_compiled.info,
            keyword_graph,
            Candidate(replicas=replicas, partition=partition),
            8,
        )
        assert layout.cores_used() == (0,)


class TestEnumeration:
    def test_enumerate_layouts_deduplicates(
        self, keyword_compiled, keyword_profile, keyword_graph
    ):
        suggestions = suggest_replicas(
            keyword_compiled.info, keyword_graph, keyword_profile, 4
        )
        choices = replica_choice_sets(suggestions, keyword_graph, 4)
        layouts = enumerate_layouts(
            keyword_compiled.info, keyword_graph, choices, 4
        )
        keys = [l.canonical_key() for l in layouts]
        assert len(keys) == len(set(keys))
        assert layouts

    def test_limit_respected(
        self, keyword_compiled, keyword_profile, keyword_graph
    ):
        suggestions = suggest_replicas(
            keyword_compiled.info, keyword_graph, keyword_profile, 4
        )
        choices = replica_choice_sets(suggestions, keyword_graph, 4)
        layouts = enumerate_layouts(
            keyword_compiled.info, keyword_graph, choices, 4, limit=2
        )
        assert len(layouts) == 2

    def test_random_skipping_subsamples(
        self, keyword_compiled, keyword_profile, keyword_graph
    ):
        suggestions = suggest_replicas(
            keyword_compiled.info, keyword_graph, keyword_profile, 4
        )
        choices = replica_choice_sets(suggestions, keyword_graph, 4)
        full = enumerate_layouts(keyword_compiled.info, keyword_graph, choices, 4)
        sampled = enumerate_layouts(
            keyword_compiled.info,
            keyword_graph,
            choices,
            4,
            rng=random.Random(1),
            skip_probability=0.7,
        )
        assert len(sampled) < len(full)

    def test_random_layouts_valid_and_distinct(
        self, keyword_compiled, keyword_profile, keyword_graph
    ):
        suggestions = suggest_replicas(
            keyword_compiled.info, keyword_graph, keyword_profile, 6
        )
        choices = replica_choice_sets(suggestions, keyword_graph, 6)
        layouts = random_layouts(
            keyword_compiled.info,
            keyword_graph,
            choices,
            6,
            count=5,
            rng=random.Random(7),
        )
        keys = {l.canonical_key() for l in layouts}
        assert len(keys) == len(layouts)
        for layout in layouts:
            layout.validate(keyword_compiled.info)

    def test_seed_layouts_valid(
        self, keyword_compiled, keyword_profile, keyword_graph
    ):
        suggestions = suggest_replicas(
            keyword_compiled.info, keyword_graph, keyword_profile, 8
        )
        seeds = seed_layouts(
            keyword_compiled.info, keyword_graph, suggestions, 8
        )
        assert seeds
        for layout in seeds:
            layout.validate(keyword_compiled.info)
        # The rule-realizing seed replicates the worker group.
        assert any(len(l.cores_of("processText")) > 1 for l in seeds)


class TestLayoutEdits:
    def test_move_instance(self, keyword_compiled):
        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        mapping["processText"] = [0, 1]
        layout = Layout.make(4, mapping)
        moved = with_instance_moved(layout, "processText", 1, 3)
        assert moved.cores_of("processText") == (0, 3)

    def test_move_missing_instance_raises(self, keyword_compiled):
        layout = Layout.single_core(keyword_compiled.info.tasks)
        with pytest.raises(ScheduleError):
            with_instance_moved(layout, "processText", 3, 0)

    def test_add_instance(self, keyword_compiled):
        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        layout = Layout.make(4, mapping)
        grown = with_instance_added(layout, "processText", 2)
        assert grown.cores_of("processText") == (0, 2)
