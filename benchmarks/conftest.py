"""Shared infrastructure for the benchmark harness.

Every paper table/figure has its own ``bench_*`` file; they share one
session-scoped :class:`ExperimentContext` so expensive artifacts (profiles,
synthesized 62-core layouts, machine runs) are computed once. Reports are
printed to stdout (run with ``-s`` to see them live) and written under
``benchmarks/out/``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import pytest

from repro.bench import PAPER_CORES, PAPER_MESH_WIDTH, get_spec, load_benchmark
from repro.core import (
    RunOptions,
    SynthesisOptions,
    run_layout,
    run_sequential,
    single_core_layout,
    synthesize_layout,
)
from repro.runtime.machine import MachineConfig
from repro.schedule.anneal import AnnealConfig

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def write_artifact(name: str, content: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as handle:
        handle.write(content)
    return path


def bench_config(seed: int = 0) -> AnnealConfig:
    """DSA configuration used for full benchmark synthesis."""
    return AnnealConfig(seed=seed, max_evaluations=400)


class ExperimentContext:
    """Lazily computed, cached experiment artifacts."""

    def __init__(self):
        self._layouts: Dict[Tuple[str, Tuple[str, ...], int], object] = {}
        self._seq: Dict[Tuple[str, Tuple[str, ...]], object] = {}
        self._one: Dict[Tuple[str, Tuple[str, ...]], object] = {}
        self._many: Dict[Tuple[str, Tuple[str, ...], int], object] = {}

    # -- building blocks ----------------------------------------------------

    def compiled(self, name: str):
        return load_benchmark(name)

    def args(self, name: str, double: bool = False) -> List[str]:
        spec = get_spec(name)
        return list(spec.double_args if double else spec.args)

    def profile(self, name: str, double: bool = False):
        """The profile of :meth:`one_core_run`, which collects it."""
        return self.one_core_run(name, double).profile

    def synthesis_report(self, name: str, double: bool = False,
                         num_cores: int = PAPER_CORES):
        key = (name, tuple(self.args(name, double)), num_cores)
        if key not in self._layouts:
            self._layouts[key] = synthesize_layout(
                self.compiled(name),
                self.profile(name, double),
                num_cores,
                options=SynthesisOptions(
                    anneal=bench_config(),
                    hints=get_spec(name).hints,
                    mesh_width=(
                        PAPER_MESH_WIDTH if num_cores == PAPER_CORES else None
                    ),
                ),
            )
        return self._layouts[key]

    # -- measured runs ---------------------------------------------------------

    def sequential_run(self, name: str, double: bool = False):
        key = (name, tuple(self.args(name, double)))
        if key not in self._seq:
            self._seq[key] = run_sequential(self.compiled(name), self.args(name, double))
        return self._seq[key]

    def one_core_run(self, name: str, double: bool = False):
        # Profiled: collecting the profile changes nothing else in the
        # run, so the same run also bootstraps synthesis (profile()).
        key = (name, tuple(self.args(name, double)))
        if key not in self._one:
            self._one[key] = run_layout(
                self.compiled(name),
                single_core_layout(self.compiled(name)),
                self.args(name, double),
                options=RunOptions(collect_profile=True),
            )
        return self._one[key]

    def many_core_run(self, name: str, double: bool = False,
                      num_cores: int = PAPER_CORES):
        key = (name, tuple(self.args(name, double)), num_cores)
        if key not in self._many:
            report = self.synthesis_report(name, double, num_cores)
            # Observed, so every many-core measurement carries its metrics
            # snapshot (utilization, queue depths, cycle accounting) for
            # the telemetry JSON artifacts. Observation never changes the
            # simulated cycle counts (bit-identity is test-enforced).
            self._many[key] = run_layout(
                self.compiled(name), report.layout, self.args(name, double),
                options=RunOptions(machine=MachineConfig(observe=True)),
            )
        return self._many[key]


@pytest.fixture(scope="session")
def ctx():
    return ExperimentContext()


def emit(title: str, body: str, artifact: Optional[str] = None) -> None:
    """Prints a report block and optionally saves it."""
    banner = "=" * 72
    text = f"\n{banner}\n{title}\n{banner}\n{body}\n"
    print(text)
    if artifact:
        write_artifact(artifact, text)
