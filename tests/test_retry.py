"""The shared backoff/jitter module (:mod:`repro.search.retry`).

These tests pin the *exact historical values* of the jitter and backoff
math: the module was extracted from
:class:`repro.search.supervise.RetryPolicy` and
:class:`repro.serve.client.ClientRetryPolicy`, and the extraction
contract is that no replayed failure trace sleeps differently than it
did before. The literals below were computed by the pre-extraction
implementations — do not "fix" them to match a changed formula.
"""

import pytest

from repro.search.retry import backoff_delay, capped_backoff, jitter


class TestJitter:
    def test_pinned_values(self):
        # sha256-derived fractions; stable across processes and platforms.
        assert jitter(7, 2) == pytest.approx(0.5529577408451587, abs=1e-15)
        assert jitter("op", 1) == pytest.approx(0.31026955018751323, abs=1e-15)
        assert jitter("shard3", 1) == pytest.approx(
            0.5183497096877545, abs=1e-15
        )

    def test_range_and_determinism(self):
        for key in (0, 1, "synthesize", "shard17", (1, 2)):
            for round_index in range(1, 6):
                value = jitter(key, round_index)
                assert 0.0 <= value < 1.0
                assert value == jitter(key, round_index)

    def test_distinct_keys_and_rounds_spread(self):
        values = {jitter(key, r) for key in range(8) for r in range(1, 4)}
        assert len(values) == 24  # no accidental collisions in this set


class TestCappedBackoff:
    def test_doubles_then_caps(self):
        assert capped_backoff(0.05, 2.0, 1) == 0.05
        assert capped_backoff(0.05, 2.0, 2) == 0.1
        assert capped_backoff(0.05, 2.0, 7) == pytest.approx(2.0)
        assert capped_backoff(0.05, 2.0, 16) == 2.0


class TestBackoffDelay:
    def test_pinned_values(self):
        # Supervisor shape: [1.0, 2.0) of the capped base.
        assert backoff_delay(
            0.05, 2.0, 3, "x", low=1.0, high=2.0
        ) == pytest.approx(0.37870106124319136, abs=1e-15)
        # Client shape: [0.5, 1.0) — exactly half the supervisor shape
        # for the same (key, round).
        assert backoff_delay(
            0.05, 2.0, 3, "x", low=0.5, high=1.0
        ) == pytest.approx(0.18935053062159568, abs=1e-15)

    def test_supervisor_shape_never_below_full_backoff(self):
        for failure in range(1, 10):
            base = capped_backoff(0.05, 2.0, failure)
            delay = backoff_delay(0.05, 2.0, failure, failure)
            assert base <= delay < 2 * base

    def test_client_shape_spreads_below_cap(self):
        for failure in range(1, 10):
            base = capped_backoff(0.05, 2.0, failure)
            delay = backoff_delay(
                0.05, 2.0, failure, "op", low=0.5, high=1.0
            )
            assert base / 2 <= delay < base


class TestDelegation:
    """The three consumer layers must route through this module."""

    def test_client_policy_delegates(self):
        from repro.serve.client import ClientRetryPolicy

        policy = ClientRetryPolicy()
        for failure in (1, 2, 5):
            assert policy.backoff("synthesize", failure) == backoff_delay(
                policy.backoff_base,
                policy.backoff_cap,
                failure,
                "synthesize",
                low=0.5,
                high=1.0,
            )

    def test_dist_lease_uses_client_shape(self):
        # The coordinator requeues with backoff_delay(..., low=0.5,
        # high=1.0) keyed by "shard<id>"; pin the value the dist layer
        # sleeps for shard 3's first retry.
        from repro.search.dist.coordinator import LeasePolicy

        policy = LeasePolicy()
        expected = backoff_delay(
            policy.backoff_base,
            policy.backoff_cap,
            1,
            "shard3",
            low=0.5,
            high=1.0,
        )
        assert expected == pytest.approx(
            policy.backoff_base * (0.5 + 0.5 * jitter("shard3", 1))
        )
