"""Shared retry arithmetic: capped backoff, deterministic jitter, EWMA
deadlines.

Three layers retry failed work and must sleep between attempts without
thundering in lockstep, yet replay identically in tests:

* :class:`repro.search.supervise.RetryPolicy` — pool-dispatch retries,
  jittered into ``[1.0, 2.0)`` of the capped base so a rebuilt pool gets
  at least the full backoff;
* :class:`repro.serve.client.ClientRetryPolicy` — reconnect/re-send
  retries, jittered into ``[0.5, 1.0)`` so an army of clients spreads
  *below* the cap;
* the dist lease layer (:mod:`repro.search.dist`) — expired-lease
  re-dispatches, client-shaped.

They all share the same two primitives, kept here once:

* :func:`jitter` — a deterministic fraction in ``[0, 1)`` from the
  sha256 of ``"<key>:<round>"``. No RNG state, no wall clock: the same
  (key, round) always jitters the same, distinct keys and rounds spread
  apart.
* :func:`backoff_delay` — ``min(cap, base * 2**(failure-1))`` scaled
  into ``[low, high)`` of itself by :func:`jitter`.

Two of them also decide *when* to give up on a dispatch — the
supervisor's per-chunk deadline and the dist coordinator's shard lease —
from the same learned deadline, kept here next to the backoff:

* :func:`ewma_deadline` — ``max(floor, ewma * mult)``, the floor alone
  before anything was observed;
* :func:`ewma_update` — folds one observed duration into the EWMA.

Extracted from the policies above with behavior pinned unchanged
(``tests/test_retry.py`` asserts the exact historical values).
"""

from __future__ import annotations

import hashlib
from typing import Optional


def jitter(key: object, round_index: int) -> float:
    """Deterministic jitter fraction in ``[0, 1)`` keyed by ``key`` (an
    op name, dispatch sequence, or shard id — anything with a stable
    ``str()``) and the 1-based failure round."""
    digest = hashlib.sha256(f"{key}:{round_index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


def capped_backoff(base: float, cap: float, failure: int) -> float:
    """The un-jittered backoff before retrying after the ``failure``-th
    consecutive failure (1-based): ``min(cap, base * 2**(failure-1))``."""
    return min(cap, base * 2 ** (failure - 1))


def backoff_delay(
    base: float,
    cap: float,
    failure: int,
    key: object,
    low: float = 1.0,
    high: float = 2.0,
) -> float:
    """The jittered sleep before retry round ``failure``: the capped
    backoff scaled into ``[low, high)`` of itself by :func:`jitter`.

    ``low=1.0, high=2.0`` is the supervisor shape (never sleep less than
    the full backoff); ``low=0.5, high=1.0`` is the client shape (spread
    strictly below the cap).
    """
    return capped_backoff(base, cap, failure) * (
        low + (high - low) * jitter(key, failure)
    )


def ewma_deadline(floor: float, mult: float, ewma: Optional[float]) -> float:
    """The deadline in seconds learned from observed durations:
    ``max(floor, ewma * mult)``, or ``floor`` before the first one."""
    if ewma is None:
        return floor
    return max(floor, ewma * mult)


def ewma_update(ewma: Optional[float], elapsed: float, alpha: float) -> float:
    """The EWMA after observing ``elapsed`` seconds (the first observation
    seeds it)."""
    if ewma is None:
        return elapsed
    return alpha * elapsed + (1.0 - alpha) * ewma
