"""Run metadata stamped onto exported artifacts.

Every artifact under ``benchmarks/out/`` (and every profile the CLI
writes) carries the same small provenance block — git sha, whether
tracked files had uncommitted changes, UTC timestamp, python version,
cpu count, schema id — so the JSON documents accumulated across PRs
form a comparable perf trajectory instead of a pile of context-free
numbers.
"""

from __future__ import annotations

import os
import platform
import subprocess
from datetime import datetime, timezone
from typing import Dict, Optional


def _git(*args: str) -> Optional[str]:
    """``git``'s stdout, run in this package's directory; ``None`` when
    git is missing or fails (no repository, say)."""
    try:
        proc = subprocess.run(
            ["git", "--no-optional-locks", *args],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _git_sha() -> Optional[str]:
    """Best-effort commit id: CI env vars first, then ``git rev-parse``."""
    for env in ("GITHUB_SHA", "GIT_COMMIT"):
        sha = os.environ.get(env)
        if sha:
            return sha
    sha = (_git("rev-parse", "HEAD") or "").strip()
    return sha or None


def _git_dirty() -> Optional[bool]:
    """Whether a tracked file differs from the commit ``_git_sha`` names,
    so its numbers may not come from that commit; ``None`` without git."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status.strip())


def run_metadata(schema: Optional[str] = None) -> Dict[str, object]:
    """The provenance block; pure data, safe to embed in any artifact."""
    meta: Dict[str, object] = {
        "git_sha": _git_sha(),
        "git_dirty": _git_dirty(),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    if schema is not None:
        meta["schema"] = schema
    return meta
