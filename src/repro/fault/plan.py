"""Deterministic fault plans.

A :class:`FaultPlan` is an immutable, cycle-ordered list of fault events.
Plans are data, never sampled at run time: an explicit constructor, the
``--inject-fault`` specs or the chaos sweep's seeded generator
(:func:`repro.resilience.chaos.chaos_plan`) fixes every event before the
machine starts, so a run under a given plan is exactly as reproducible as
a fault-free run — the same plan always produces the same crash, the same
recovery, and the same final cycle count.

Three event kinds cover the failure modes a mesh machine sees:

* :class:`CoreCrash` — the core halts at a cycle and never returns; its
  in-flight invocation rolls back and its work migrates to survivors.
* :class:`TransientStall` — the core freezes for a bounded number of
  cycles (thermal throttling, a hung DMA), then resumes where it was.
* :class:`LinkDegrade` — from a cycle onward every mesh hop costs a
  multiple of its nominal latency (a congested or half-failed link fabric).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from ..lang.errors import ScheduleError


class FaultError(ScheduleError):
    """A fault plan is malformed or recovery is impossible (all cores dead)."""


@dataclass(frozen=True)
class CoreCrash:
    """Core ``core`` halts permanently at ``cycle``."""

    core: int
    cycle: int


@dataclass(frozen=True)
class TransientStall:
    """Core ``core`` freezes at ``cycle`` for ``duration`` cycles."""

    core: int
    cycle: int
    duration: int


@dataclass(frozen=True)
class LinkDegrade:
    """From ``cycle`` on, every mesh hop costs ``multiplier``× its nominal
    latency. A later event with multiplier 1.0 restores full speed."""

    cycle: int
    multiplier: float


FaultEvent = Union[CoreCrash, TransientStall, LinkDegrade]


def _event_key(event: FaultEvent) -> Tuple[int, int, int]:
    """Total order for events: cycle, then kind, then core — ties between
    same-cycle events resolve identically on every run."""
    if isinstance(event, CoreCrash):
        return (event.cycle, 0, event.core)
    if isinstance(event, TransientStall):
        return (event.cycle, 1, event.core)
    return (event.cycle, 2, -1)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, cycle-ordered schedule of fault events."""

    events: Tuple[FaultEvent, ...]

    # -- constructors --------------------------------------------------------

    @staticmethod
    def make(events: Sequence[FaultEvent]) -> "FaultPlan":
        for event in events:
            if event.cycle < 0:
                raise FaultError(f"fault event at negative cycle: {event}")
            if isinstance(event, TransientStall) and event.duration <= 0:
                raise FaultError(f"stall duration must be positive: {event}")
            if isinstance(event, LinkDegrade) and event.multiplier <= 0:
                raise FaultError(f"link multiplier must be positive: {event}")
        return FaultPlan(events=tuple(sorted(events, key=_event_key)))

    @staticmethod
    def single_crash(core: int, cycle: int) -> "FaultPlan":
        return FaultPlan.make([CoreCrash(core=core, cycle=cycle)])

    @staticmethod
    def parse(specs: Sequence[str]) -> "FaultPlan":
        """Builds a plan from CLI specs (see :func:`parse_fault_spec`)."""
        return FaultPlan.make([parse_fault_spec(spec) for spec in specs])

    # -- accessors ------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.events

    def crash_cores(self) -> List[int]:
        return [e.core for e in self.events if isinstance(e, CoreCrash)]

    def describe(self) -> str:
        if not self.events:
            return "fault plan: (empty)"
        lines = ["fault plan:"]
        for event in self.events:
            if isinstance(event, CoreCrash):
                lines.append(f"  cycle {event.cycle:>10,}: crash core {event.core}")
            elif isinstance(event, TransientStall):
                lines.append(
                    f"  cycle {event.cycle:>10,}: stall core {event.core} "
                    f"for {event.duration:,} cycles"
                )
            else:
                lines.append(
                    f"  cycle {event.cycle:>10,}: link degrade x{event.multiplier:g}"
                )
        return "\n".join(lines)


def parse_fault_spec(spec: str) -> FaultEvent:
    """Parses one ``--inject-fault`` spec.

    Formats::

        core=K@CYCLE          crash core K at CYCLE
        stall=K@CYCLE:DUR     stall core K at CYCLE for DUR cycles
        link=MULT@CYCLE       degrade every hop to MULT x nominal at CYCLE
    """
    try:
        kind, rest = spec.split("=", 1)
        value, at = rest.split("@", 1)
        if kind == "core":
            return CoreCrash(core=int(value), cycle=int(at))
        if kind == "stall":
            cycle, duration = at.split(":", 1)
            return TransientStall(
                core=int(value), cycle=int(cycle), duration=int(duration)
            )
        if kind == "link":
            return LinkDegrade(cycle=int(at), multiplier=float(value))
    except (ValueError, TypeError) as exc:
        raise FaultError(f"bad fault spec '{spec}': {exc}") from None
    raise FaultError(
        f"bad fault spec '{spec}' (expected core=K@CYCLE, "
        "stall=K@CYCLE:DUR, or link=MULT@CYCLE)"
    )
