"""Helpers shared by the benchmark's workloads.

Everything here runs inside a checkout of the repository: the program
under test is imported from ``src/``, child processes get the same
``PYTHONPATH``, and scratch files live under ``.perfbench_work/`` at
the checkout root (removed when a run ends).
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def program_present() -> bool:
    """Whether the checkout holds the program under test."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/``."""
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)


def child_env() -> dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class WorkDir:
    """A per-run scratch directory under the checkout, removed on exit."""

    def __init__(self, prefix: str) -> None:
        WORK.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK.rmdir()  # only succeeds once no other run uses it
        except OSError:
            pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def host_info() -> dict[str, object]:
    """Host and toolchain facts recorded with every result."""
    use_program()
    import numpy

    from repro.backends.base import default_backend_name

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": default_backend_name(),
    }


def emit_info(record: dict[str, object]) -> None:
    """Print the run's descriptive record (never the last line)."""
    print("# info " + json.dumps(record, sort_keys=True), flush=True)


def emit_result(
    correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]
) -> None:
    """Print the result object as the last line of standard output."""
    out = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(out), flush=True)
