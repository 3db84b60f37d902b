"""Rule modules; importing this package registers every rule.

Per-file rules (REP001, REP002, REP004-REP006) register into
:data:`repro.lint.engine.RULES`; project rules (REP007-REP009) into
:data:`repro.lint.project.PROJECT_RULES`.
"""

from . import (
    asyncblocking,
    dtype,
    frameprotocol,
    hotpath,
    sockets,
    tasklifecycle,
    versioning,
)

__all__ = [
    "asyncblocking",
    "dtype",
    "frameprotocol",
    "hotpath",
    "sockets",
    "tasklifecycle",
    "versioning",
]
