"""Profile data model tests."""

import pytest

from repro.runtime.profiler import ProfileData


def small_profile():
    profile = ProfileData()
    profile.record_invocation("t", 1, 100, {0: 2})
    profile.record_invocation("t", 1, 120, {0: 2})
    profile.record_invocation("t", 2, 50)
    profile.record_invocation("u", 1, 10)
    profile.run_cycles = 1234
    return profile


class TestRecording:
    def test_invocations(self):
        profile = small_profile()
        assert profile.invocations("t") == 3
        assert profile.invocations("u") == 1
        assert profile.invocations("missing") == 0

    def test_exit_ids(self):
        assert small_profile().exit_ids("t") == [1, 2]

    def test_probabilities(self):
        profile = small_profile()
        assert profile.exit_probability("t", 1) == pytest.approx(2 / 3)
        assert profile.exit_probability("t", 2) == pytest.approx(1 / 3)
        assert profile.exit_probability("t", 9) == 0.0
        assert profile.exit_probability("missing", 1) == 0.0

    def test_avg_cycles(self):
        profile = small_profile()
        assert profile.avg_cycles("t", 1) == pytest.approx(110.0)
        assert profile.avg_cycles("t", 2) == pytest.approx(50.0)
        assert profile.avg_cycles("t", 9) == 0.0

    def test_avg_task_cycles_weighted(self):
        profile = small_profile()
        assert profile.avg_task_cycles("t") == pytest.approx((100 + 120 + 50) / 3)

    def test_avg_allocs(self):
        profile = small_profile()
        assert profile.avg_allocs("t", 1) == {0: 2.0}
        assert profile.avg_allocs("t", 2) == {}

    def test_exit_sequence(self):
        assert small_profile().exit_sequence("t") == [1, 1, 2]

    def test_exit_count(self):
        assert small_profile().exit_count("t", 1) == 2


class TestRealProfile(object):
    def test_keyword_profile_contents(self, keyword_profile):
        assert keyword_profile.invocations("startup") == 1
        assert keyword_profile.invocations("processText") == 6
        assert keyword_profile.invocations("mergeIntermediateResult") == 6
        # startup allocates 6 Texts and 1 Results at two distinct sites.
        allocs = keyword_profile.avg_allocs("startup", 1)
        assert sorted(allocs.values()) == [1.0, 6.0]

    def test_merge_sequence_ends_with_finishing_exit(self, keyword_profile):
        sequence = keyword_profile.exit_sequence("mergeIntermediateResult")
        assert sequence == [2, 2, 2, 2, 2, 1]
