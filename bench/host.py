"""Host fingerprint recorded in every result file."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

#: A 1-minute load average above this at the start earns a warning.
LOAD_WARNING = 0.5


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """The checkout's commit, or ``unknown`` (the driver's checkout is not a
    git repository)."""
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(root: Path, seed: int, warn: bool = True) -> dict:
    load = os.getloadavg()[0]
    if warn and load > LOAD_WARNING:
        print(f"warning: 1-min load average is {load:.2f} at start; timings will be noisy",
              file=sys.stderr)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "load_1min_start": load,
        "git_commit": git_commit(root),
        "seed": seed,
    }


def finish(host: dict) -> dict:
    host["load_1min_end"] = os.getloadavg()[0]
    return host
