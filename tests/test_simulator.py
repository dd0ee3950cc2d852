"""Scheduling simulator tests (paper §4.4)."""

import pytest

from repro.bench import load_benchmark
from repro.core import profile_program, run_layout, single_core_layout
from repro.runtime.profiler import ProfileData
from repro.schedule.layout import Layout
from repro.schedule.simulator import ExitChooser, SimSession, simulate

from test_search import SMALL_ARGS


def quad_layout(compiled):
    mapping = {t: [0] for t in compiled.info.tasks}
    mapping["processText"] = [0, 1, 2, 3]
    return Layout.make(4, mapping)


class TestExitChooser:
    @staticmethod
    def profile_with(task, sequence):
        profile = ProfileData()
        for exit_id in sequence:
            profile.record_invocation(task, exit_id, 10)
        return profile

    def test_single_exit(self):
        profile = self.profile_with("t", [1, 1, 1])
        chooser = ExitChooser(profile)
        assert chooser.choose("t", None) == 1

    def test_sequence_replayed_exactly(self):
        sequence = [2, 2, 2, 1, 2, 2, 3]
        profile = self.profile_with("t", sequence)
        chooser = ExitChooser(profile)
        assert [chooser.choose("t", None) for _ in sequence] == sequence

    def test_terminal_exit_at_period_boundary(self):
        # The keyword/merge pattern: 7 continues then one finish.
        sequence = [2] * 7 + [1]
        profile = self.profile_with("t", sequence)
        chooser = ExitChooser(profile)
        picks = [chooser.choose("t", None) for _ in range(8)]
        assert picks == sequence

    def test_beyond_sequence_falls_back_proportionally(self):
        sequence = [2] * 9 + [1]
        profile = self.profile_with("t", sequence)
        chooser = ExitChooser(profile)
        picks = [chooser.choose("t", None) for _ in range(30)]
        # After the recorded sequence, the chooser keeps the 9:1 mix.
        assert picks[:10] == sequence
        tail = picks[10:]
        assert tail.count(1) in (1, 2, 3)
        assert tail.count(2) > tail.count(1)

    def test_per_object_hint_tracks_objects_independently(self):
        sequence = [2, 1] * 5
        profile = self.profile_with("t", sequence)
        chooser = ExitChooser(profile, hints={"t": "per_object"})
        first_obj = [chooser.choose("t", 100) for _ in range(2)]
        second_obj = [chooser.choose("t", 200) for _ in range(2)]
        assert first_obj == second_obj


class TestEstimates:
    def test_single_core_estimate_close_to_real(
        self, keyword_compiled, keyword_profile
    ):
        layout = single_core_layout(keyword_compiled)
        estimate = simulate(keyword_compiled, layout, keyword_profile)
        real = run_layout(keyword_compiled, layout, ["6"])
        error = abs(estimate.total_cycles - real.total_cycles) / real.total_cycles
        assert error < 0.05

    def test_multi_core_estimate_close_to_real(
        self, keyword_compiled, keyword_profile
    ):
        layout = quad_layout(keyword_compiled)
        estimate = simulate(keyword_compiled, layout, keyword_profile)
        real = run_layout(keyword_compiled, layout, ["6"])
        error = abs(estimate.total_cycles - real.total_cycles) / real.total_cycles
        assert error < 0.15

    def test_invocation_counts_match_profile(
        self, keyword_compiled, keyword_profile
    ):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        assert result.invocations == {
            "startup": 1,
            "processText": 6,
            "mergeIntermediateResult": 6,
        }

    def test_simulation_terminates_and_is_finished(
        self, keyword_compiled, keyword_profile
    ):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        assert result.finished
        assert 0 < result.utilization <= 1

    def test_deterministic(self, keyword_compiled, keyword_profile):
        layout = quad_layout(keyword_compiled)
        first = simulate(keyword_compiled, layout, keyword_profile)
        second = simulate(keyword_compiled, layout, keyword_profile)
        assert first.total_cycles == second.total_cycles


class TestTrace:
    def test_trace_events_well_formed(self, keyword_compiled, keyword_profile):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        assert result.trace
        for event in result.trace:
            assert event.end > event.start
            assert event.data_ready <= event.start
            assert 0 <= event.core < 4

    def test_no_core_overlap(self, keyword_compiled, keyword_profile):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        for core in range(4):
            events = result.events_on_core(core)
            for before, after in zip(events, events[1:]):
                assert before.end <= after.start

    def test_data_edges_reference_earlier_events(
        self, keyword_compiled, keyword_profile
    ):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        by_id = {e.event_id: e for e in result.trace}
        for event in result.trace:
            for producer_id, _ in event.inputs:
                if producer_id is not None:
                    assert by_id[producer_id].end <= event.start

    def test_total_is_last_end(self, keyword_compiled, keyword_profile):
        result = simulate(
            keyword_compiled, quad_layout(keyword_compiled), keyword_profile
        )
        assert result.total_cycles == max(e.end for e in result.trace)


class TestStaleHandling:
    def test_max_events_marks_unfinished(self, keyword_compiled, keyword_profile):
        result = simulate(
            keyword_compiled,
            single_core_layout(keyword_compiled),
            keyword_profile,
            max_events=3,
        )
        assert not result.finished


def trace_data(result):
    """A SimResult's complete observable content, as comparable data."""
    return (
        result.total_cycles,
        result.finished,
        repr(result.utilization),
        sorted(result.core_busy.items()),
        sorted(result.invocations.items()),
        [
            (e.event_id, e.task, e.core, e.start, e.end, e.exit_id,
             e.data_ready, tuple(e.param_objects), tuple(e.inputs),
             tuple(e.produced))
            for e in result.trace
        ],
    )


@pytest.fixture(scope="module")
def tracking_context():
    compiled = load_benchmark("Tracking")
    profile = profile_program(compiled, SMALL_ARGS["Tracking"])
    return compiled, profile


class TestSessionApi:
    def test_facade_with_session_matches_sessionless(self, tracking_context):
        compiled, profile = tracking_context
        session = SimSession(compiled, profile)
        layout = Layout.make(4, {t: [0] for t in compiled.info.tasks})
        with_session = session.simulate(layout)
        without = simulate(compiled, layout, profile)
        assert trace_data(with_session) == trace_data(without)

    def test_all_public_symbols_import(self):
        import repro
        import repro.schedule
        import repro.search
        import repro.serve

        for module in (repro, repro.schedule, repro.search, repro.serve):
            for name in module.__all__:
                assert not name.startswith("_"), (module.__name__, name)
                assert hasattr(module, name), (module.__name__, name)
        # The session API is part of the top-level surface.
        for name in ("simulate", "SimSession", "SimResult"):
            assert name in repro.__all__
            assert name in repro.schedule.__all__
