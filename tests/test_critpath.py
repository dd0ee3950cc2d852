"""Critical path analysis tests (paper §4.5.1)."""

from repro.core import annotated_cstg
from repro.schedule.critpath import (
    _core_activity,
    _spare_cores,
    compute_critical_path,
    suggest_moves,
)
from repro.schedule.layout import Layout
from repro.schedule.simulator import SimResult, SimTrace, TraceEvent, simulate


def make_event(event_id, task, core, start, end, data_ready=None, producers=()):
    return TraceEvent(
        event_id=event_id,
        task=task,
        core=core,
        start=start,
        end=end,
        exit_id=1,
        data_ready=data_ready if data_ready is not None else start,
        producers=list(producers),
    )


def make_result(trace, num_cores=4):
    total = max(e.end for e in trace)
    busy = {}
    for event in trace:
        busy[event.core] = busy.get(event.core, 0) + event.duration
    return SimResult(
        total_cycles=total,
        finished=True,
        trace=SimTrace.from_events(trace),
        core_busy=busy,
        invocations={},
        utilization=0.5,
    )


class TestSyntheticTraces:
    def test_pure_chain_is_whole_path(self):
        # a -> b -> c linked by data edges across cores.
        trace = [
            make_event(0, "a", 0, 0, 10),
            make_event(1, "b", 1, 12, 20, data_ready=12, producers=[0]),
            make_event(2, "c", 2, 22, 30, data_ready=22, producers=[1]),
        ]
        path = compute_critical_path(make_result(trace))
        assert [s.event.task for s in path.steps] == ["a", "b", "c"]
        assert path.total == 30
        assert [s.bound for s in path.steps] == ["start", "data", "data"]

    def test_resource_bound_detected(self):
        # b's data was ready at 0 but core 0 was busy with a until 10.
        trace = [
            make_event(0, "a", 0, 0, 10),
            make_event(1, "b", 0, 10, 25, data_ready=0),
        ]
        path = compute_critical_path(make_result(trace))
        assert [s.event.task for s in path.steps] == ["a", "b"]
        assert path.steps[1].bound == "resource"
        assert path.steps[1].delay == 10

    def test_key_events(self):
        trace = [
            make_event(0, "a", 0, 0, 10),
            make_event(1, "b", 1, 12, 30, data_ready=12, producers=[0]),
        ]
        path = compute_critical_path(make_result(trace))
        assert path.key_event_ids() == {0}

    def test_empty_trace(self):
        result = SimResult(
            total_cycles=0,
            finished=True,
            trace=SimTrace(),
            core_busy={},
            invocations={},
            utilization=0.0,
        )
        path = compute_critical_path(result)
        assert path.steps == []

    def test_format_renders(self):
        trace = [make_event(0, "a", 0, 0, 10)]
        text = compute_critical_path(make_result(trace)).format()
        assert "critical path" in text and "a" in text


def spare_cores(trace, num_cores, start, end):
    """Cores with no simulated activity overlapping [start, end)."""
    intervals, _ = _core_activity(make_result(trace))
    return list(_spare_cores(intervals, num_cores, start, end))


class TestSpareCores:
    def test_idle_core_detected(self):
        trace = [
            make_event(0, "a", 0, 0, 10),
            make_event(1, "b", 1, 0, 5),
        ]
        assert spare_cores(trace, 4, 0, 10) == [2, 3]

    def test_partial_overlap_excludes(self):
        trace = [make_event(0, "a", 2, 5, 15)]
        assert 2 not in spare_cores(trace, 4, 0, 10)
        assert 2 in spare_cores(trace, 4, 16, 20)


class TestMoveSuggestions:
    def test_delayed_event_suggests_migration_to_spare_core(self):
        trace = [
            make_event(0, "a", 0, 0, 10),
            make_event(1, "b", 0, 10, 40, data_ready=0),
        ]
        layout = Layout.make(4, {"a": [0], "b": [0]})
        moves = suggest_moves(make_result(trace), layout)
        assert moves
        migration = moves[0]
        assert migration.task == "b"
        assert migration.from_core == 0
        assert migration.to_core in (1, 2, 3)

    def test_no_moves_on_tight_schedule(self):
        trace = [
            make_event(0, "a", 0, 0, 10),
            make_event(1, "b", 1, 12, 20, data_ready=12, producers=[0]),
        ]
        layout = Layout.make(2, {"a": [0], "b": [1]})
        moves = suggest_moves(make_result(trace), layout)
        assert moves == []


class TestRealTrace:
    def test_path_on_keyword_simulation(self, keyword_compiled, keyword_profile):
        layout = Layout.single_core(keyword_compiled.info.tasks)
        result = simulate(keyword_compiled, layout, keyword_profile)
        path = compute_critical_path(result)
        assert path.total == result.total_cycles
        assert path.steps[0].event.task == "startup"
        # On one core every event after the first is either resource-bound
        # or immediately follows its data.
        assert all(s.event.core == 0 for s in path.steps)
