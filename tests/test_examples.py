"""Smoke tests: the fast example scripts run end to end.

The heavier walkthroughs (compiler explorer, adaptive executable,
MonteCarlo pipelining) are exercised indirectly by the library tests; the
two quick ones run here as subprocesses to catch import or API rot.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_quickstart_runs():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "speedup vs 1-core Bamboo" in result.stdout
    assert "'total=48'" in result.stdout


def test_tagged_save_pipeline_runs():
    result = run_example("tagged_save_pipeline.py")
    assert result.returncode == 0, result.stderr
    assert "finishsave x12" in result.stdout
    # The example itself asserts that no Drawing/Image mismatch occurred
    # (a failure would exit non-zero, caught above).


@pytest.mark.parametrize(
    "name",
    [
        "quickstart.py",
        "montecarlo_pipeline.py",
        "tagged_save_pipeline.py",
        "compiler_explorer.py",
        "adaptive_executable.py",
    ],
)
def test_examples_importable(name):
    # Each example compiles as a module (no syntax/import errors).
    path = os.path.join(EXAMPLES_DIR, name)
    source = Path(path).read_text()
    compile(source, path, "exec")


def test_tutorial_code_blocks_work():
    """The java blocks in docs/TUTORIAL.md concatenate into a program that
    compiles, runs, and matches the numbers the tutorial quotes."""
    import re

    doc = os.path.join(os.path.dirname(__file__), "..", "docs", "TUTORIAL.md")
    text = Path(doc).read_text()
    blocks = re.findall(r"```java\n(.*?)```", text, re.S)
    assert len(blocks) >= 2
    source = "\n".join(blocks)

    from repro.core import (
        compile_program,
        run_layout,
        single_core_layout,
    )

    compiled = compile_program(source, "tutorial-thumbs")
    result = run_layout(compiled, single_core_layout(compiled), ["16"])
    assert result.stdout.startswith("avg=")
    assert result.invocations["decode"] == 16
    assert result.invocations["collect"] == 16
    # The tutorial's lock-plan claim: everything fine-grained.
    assert compiled.lock_plan.shared_lock_tasks() == []


def test_compiler_explorer_runs_on_keyword():
    result = subprocess.run(
        [
            sys.executable,
            os.path.join(EXAMPLES_DIR, "compiler_explorer.py"),
            "Keyword",
        ],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr
    assert "abstract state transition graphs" in result.stdout
    assert "critical path" in result.stdout
