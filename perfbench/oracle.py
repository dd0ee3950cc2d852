"""Regenerates ``expected_stdout.json``, the benchmark's output oracle.

For each paper program at ``Input_original`` the expected stdout is taken
once from ``run_sequential`` (the interpreter with no task runtime) and
checked against the 1-core machine run's stdout before it is recorded.
Every benchmark run then compares each profiling run's and each 62-core
run's stdout with this digest.

Run from the repository root::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import os
import sys

from common import DIGESTS_PATH, PROGRAMS, stdout_digest


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro.bench.suite import get_spec, load_source
    from repro.core.api import (
        compile_program,
        run_layout,
        run_sequential,
        single_core_layout,
    )

    programs = {}
    for name in PROGRAMS:
        spec = get_spec(name)
        compiled = compile_program(load_source(name), spec.filename)
        args = list(spec.args)
        expected = run_sequential(compiled, args).stdout
        one_core = run_layout(compiled, single_core_layout(compiled), args).stdout
        if one_core != expected:
            print(f"error: {name}: 1-core stdout differs from sequential",
                  file=sys.stderr)
            return 1
        programs[name] = {
            "args": args,
            "sha256": stdout_digest(expected),
            "bytes": len(expected.encode("utf-8")),
        }
        print(f"{name}: {programs[name]['sha256'][:16]}", file=sys.stderr)
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(
            {"source": "run_sequential at Input_original", "programs": programs},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
