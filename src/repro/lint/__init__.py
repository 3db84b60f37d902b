"""Project-specific static analysis for the repro codebase.

A dependency-free (stdlib ``ast``) linter enforcing invariants the
generic tools cannot see.  Two phases:

* **per-file rules** — cache/version discipline (REP001, REP005), the
  canonical clock dtype (REP002), hot-path hygiene (REP004), socket
  lifecycles (REP006);
* **project rules** (``--project``) — a whole-program symbol index and
  call graph (:mod:`repro.lint.project`) powering blocking-call-in-
  coroutine detection (REP007), task-lifecycle checks (REP008), and
  frame-protocol consistency (REP009).

Run it as ``python -m repro lint [--project]``.
"""

from .baseline import Baseline, partition
from .engine import (
    RULES,
    FileContext,
    Finding,
    Rule,
    parse_file,
    run_file,
    run_paths,
)
from .project import PROJECT_RULES, ProjectContext, build_project, run_project
from . import rules as _rules  # noqa: F401  (side effect: rule registration)

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "PROJECT_RULES",
    "ProjectContext",
    "RULES",
    "Rule",
    "build_project",
    "parse_file",
    "partition",
    "run_file",
    "run_paths",
    "run_project",
]
