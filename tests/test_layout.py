"""Layout, mesh topology, and router tests."""

import pickle

import pytest

from repro.analysis.astate import AState
from repro.lang.errors import ScheduleError
from repro.lang.parser import parse_program
from repro.schedule.layout import (
    Layout,
    Router,
    common_tag_binding,
    layout_fingerprint,
    mesh_coords,
    mesh_hops,
)


class TestMesh:
    def test_coords(self):
        assert mesh_coords(0, 8) == (0, 0)
        assert mesh_coords(7, 8) == (7, 0)
        assert mesh_coords(8, 8) == (0, 1)
        assert mesh_coords(63, 8) == (7, 7)

    def test_hops_manhattan(self):
        assert mesh_hops(0, 0, 8) == 0
        assert mesh_hops(0, 7, 8) == 7
        assert mesh_hops(0, 63, 8) == 14
        assert mesh_hops(9, 18, 8) == 2

    def test_hops_symmetric(self):
        for a, b in [(0, 5), (3, 60), (17, 42)]:
            assert mesh_hops(a, b, 8) == mesh_hops(b, a, 8)


class TestLayout:
    def test_make_sorts_and_dedups(self):
        layout = Layout.make(4, {"t": [2, 0, 2]})
        assert layout.cores_of("t") == (0, 2)

    def test_single_core(self):
        layout = Layout.single_core(["a", "b"])
        assert layout.num_cores == 1
        assert layout.tasks_on_core(0) == ["a", "b"]

    def test_cores_used(self):
        layout = Layout.make(8, {"a": [0, 3], "b": [3, 5]})
        assert layout.cores_used() == (0, 3, 5)

    def test_default_mesh_width(self):
        assert Layout.make(62, {"a": [0]}).mesh_width == 8
        assert Layout.make(16, {"a": [0]}).mesh_width == 4
        assert Layout.make(1, {"a": [0]}).mesh_width == 1

    def test_canonical_key_core_renaming_invariant(self):
        a = Layout.make(8, {"x": [0, 1], "y": [2]})
        b = Layout.make(8, {"x": [5, 7], "y": [1]})
        assert a.canonical_key() == b.canonical_key()

    def test_canonical_key_distinguishes_colocations(self):
        a = Layout.make(8, {"x": [0], "y": [0]})
        b = Layout.make(8, {"x": [0], "y": [1]})
        assert a.canonical_key() != b.canonical_key()

    def test_describe_mentions_cores(self):
        text = Layout.make(4, {"a": [0, 1]}).describe()
        assert "core   0" in text


    def test_keys_are_computed_once_and_left_out_of_pickles(self):
        layout = Layout.make(8, {"a": [0, 3], "b": [3, 5], "c": [1]})
        fresh = pickle.dumps(layout)
        key, used = layout.canonical_key(), layout.cores_used()
        fingerprint = layout_fingerprint(layout)
        assert layout.canonical_key() is key and layout.cores_used() is used
        assert layout_fingerprint(layout) is fingerprint
        assert pickle.dumps(layout) == fresh
        clone = pickle.loads(fresh)
        assert clone == layout
        assert (clone.canonical_key(), clone.cores_used()) == (key, used)
        assert layout_fingerprint(clone) == fingerprint


class TestValidation:
    def test_missing_task_rejected(self, keyword_compiled):
        layout = Layout.make(2, {"startup": [0]})
        with pytest.raises(ScheduleError):
            layout.validate(keyword_compiled.info)

    def test_unknown_task_rejected(self, keyword_compiled):
        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        mapping["ghost"] = [0]
        with pytest.raises(ScheduleError):
            Layout.make(2, mapping).validate(keyword_compiled.info)

    def test_core_out_of_range_rejected(self, keyword_compiled):
        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        mapping["processText"] = [5]
        with pytest.raises(ScheduleError):
            Layout.make(2, mapping).validate(keyword_compiled.info)

    def test_multi_param_task_cannot_replicate(self, keyword_compiled):
        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        mapping["mergeIntermediateResult"] = [0, 1]
        with pytest.raises(ScheduleError):
            Layout.make(2, mapping).validate(keyword_compiled.info)

    def test_tagged_multi_param_task_can_replicate(self, tagged_compiled):
        mapping = {t: [0] for t in tagged_compiled.info.tasks}
        mapping["finishsave"] = [0, 1]
        Layout.make(2, mapping).validate(tagged_compiled.info)

    def test_valid_layout_passes(self, keyword_compiled):
        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        mapping["processText"] = [0, 1, 2, 3]
        Layout.make(4, mapping).validate(keyword_compiled.info)


class TestCommonTagBinding:
    def test_no_tags(self):
        program = parse_program("task t(A a in f, B b in g) { }")
        assert common_tag_binding(program.tasks[0]) is None

    def test_shared_binding(self):
        program = parse_program(
            "task t(A a in f with grp g, B b in h with grp g) { }"
        )
        assert common_tag_binding(program.tasks[0]) == "g"

    def test_disjoint_bindings(self):
        program = parse_program(
            "task t(A a in f with grp g1, B b in h with grp g2) { }"
        )
        assert common_tag_binding(program.tasks[0]) is None

    def test_no_params(self):
        program = parse_program("task t() { }")
        assert common_tag_binding(program.tasks[0]) is None


class TestRouter:
    def test_consumers_match_guards(self, keyword_compiled):
        layout = Layout.single_core(keyword_compiled.info.tasks)
        router = Router(keyword_compiled.info, layout)
        consumers = router.consumers("Text", AState.make(["process"]))
        assert consumers == [("processText", 0)]
        consumers = router.consumers("Text", AState.make(["submit"]))
        assert consumers == [("mergeIntermediateResult", 1)]
        assert router.consumers("Text", AState.make([])) == []

    def test_consumers_cached(self, keyword_compiled):
        layout = Layout.single_core(keyword_compiled.info.tasks)
        router = Router(keyword_compiled.info, layout)
        first = router.consumers("Text", AState.make(["process"]))
        second = router.consumers("Text", AState.make(["process"]))
        assert first is second

    def test_pick_core_single_instance(self, keyword_compiled):
        layout = Layout.single_core(keyword_compiled.info.tasks)
        router = Router(keyword_compiled.info, layout)
        assert router.pick_core("processText", {}, sender_core=0) == 0

    def test_pick_core_round_robin_rotates(self, keyword_compiled):
        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        mapping["processText"] = [0, 1, 2, 3]
        layout = Layout.make(4, mapping)
        router = Router(keyword_compiled.info, layout)
        rr = {}
        picks = [router.pick_core("processText", rr, sender_core=0) for _ in range(8)]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_pick_core_staggered_by_sender(self, keyword_compiled):
        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        mapping["processText"] = [0, 1, 2, 3]
        layout = Layout.make(4, mapping)
        router = Router(keyword_compiled.info, layout)
        rr = {}
        # A sender hosting an instance starts its rotation at itself
        # (data locality); distinct senders fan out to distinct cores.
        assert router.pick_core("processText", rr, sender_core=2) == 2
        assert router.pick_core("processText", rr, sender_core=1) == 1

    def test_pick_core_tag_hash_stable(self, keyword_compiled):
        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        mapping["processText"] = [0, 1, 2]
        layout = Layout.make(4, mapping)
        router = Router(keyword_compiled.info, layout)
        picks = {router.pick_core("processText", {}, 0, tag_hash=7) for _ in range(5)}
        assert picks == {7 % 3}


class TestTopologies:
    def test_torus_wraps(self):
        from repro.schedule.layout import torus_hops

        # 4x4 torus: opposite corners are 2 hops, not 6.
        assert torus_hops(0, 15, 4, 16) == 2
        assert torus_hops(0, 3, 4, 16) == 1  # row wrap
        assert torus_hops(0, 12, 4, 16) == 1  # column wrap
        assert torus_hops(5, 5, 4, 16) == 0

    def test_ring_distance(self):
        from repro.schedule.layout import ring_hops

        assert ring_hops(0, 15, 16) == 1
        assert ring_hops(0, 8, 16) == 8
        assert ring_hops(3, 3, 16) == 0

    def test_layout_hops_dispatch(self):
        mesh = Layout.make(16, {"t": [0]}, mesh_width=4)
        torus = Layout.make(16, {"t": [0]}, mesh_width=4, topology="torus")
        ring = Layout.make(16, {"t": [0]}, topology="ring")
        assert mesh.hops(0, 15) == 6
        assert torus.hops(0, 15) == 2
        assert ring.hops(0, 15) == 1

    def test_unknown_topology_rejected(self):
        import pytest as _pytest
        from repro.lang.errors import ScheduleError

        with _pytest.raises(ScheduleError):
            Layout.make(4, {"t": [0]}, topology="hypercube")

    def test_torus_machine_faster_than_mesh(self, keyword_compiled):
        from repro.core import run_layout

        mapping = {t: [0] for t in keyword_compiled.info.tasks}
        mapping["processText"] = [15]
        mesh = Layout.make(16, mapping, mesh_width=4)
        torus = Layout.make(16, mapping, mesh_width=4, topology="torus")
        mesh_run = run_layout(keyword_compiled, mesh, ["1"])
        torus_run = run_layout(keyword_compiled, torus, ["1"])
        assert torus_run.stdout == mesh_run.stdout
        assert torus_run.total_cycles < mesh_run.total_cycles
