"""Core machinery for the repro project linter.

The linter is a small, dependency-free (stdlib ``ast`` + ``tokenize``)
static checker for project invariants that generic tools cannot see:
cache/version discipline, the canonical clock dtype, hot-path hygiene
and socket lifecycles.  This module provides:

* :class:`Finding` — one diagnostic, ordered for stable output;
* :class:`Rule` / :func:`rule` — the rule registry (rules live in
  :mod:`repro.lint.rules` and self-register on import);
* :class:`FileContext` — parsed source handed to every rule: AST,
  parent links, module pragma tags, and inline suppressions;
* :func:`run_paths` / :func:`run_file` — the runner.

Module pragmas
--------------
A comment line of the form ``# repro: tag[, tag...]`` anywhere in a
module declares tags that gate optional rules.  Recognised tags:

``hot``
    The module is a measured hot path; :data:`REP004` applies.
``dtype-strict``
    NumPy arrays constructed here feed the clock kernels; :data:`REP002`
    applies.

Inline suppressions
-------------------
``# repro-lint: disable=REP004[,REP005] -- justification`` silences the
named rules.  A trailing comment applies to its own line; a comment that
is alone on its line applies to the *next* line.  ``disable`` without
``=RULES`` silences every rule for the target line.  The justification
text after ``--`` is conventional but not enforced.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator

__all__ = [
    "Finding",
    "Rule",
    "FileContext",
    "RULES",
    "rule",
    "iter_python_files",
    "parse_file",
    "run_file",
    "run_file_rules",
    "run_paths",
]

#: Severity levels, in increasing order of gravity.  Severity does not
#: change the exit code (any non-baselined finding fails the run); it is
#: surfaced in ``--list-rules`` and in the findings themselves so that
#: downstream tooling can triage.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic.  Ordering gives deterministic report output."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: line numbers drift, messages rarely do."""
        return (self.path, self.rule, self.message)


@dataclass(frozen=True)
class Rule:
    """A registered check.

    ``check(ctx)`` yields ``(node_or_pos, message)`` pairs where
    ``node_or_pos`` is an AST node (or a ``(line, col)`` tuple); the
    engine attaches the rule code, severity, and file path, and applies
    inline suppressions.
    """

    code: str
    name: str
    severity: str
    description: str
    check: Callable[["FileContext"], Iterator[tuple[object, str]]]
    requires_tag: str | None = None


#: Global registry, keyed by rule code (``REP001`` ...).
RULES: dict[str, Rule] = {}


def rule(
    code: str,
    name: str,
    *,
    severity: str = "error",
    description: str,
    requires_tag: str | None = None,
) -> Callable[[Callable[["FileContext"], Iterator[tuple[object, str]]]], Rule]:
    """Decorator: register a check function under ``code``."""

    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")

    def register(fn: Callable[["FileContext"], Iterator[tuple[object, str]]]) -> Rule:
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        entry = Rule(
            code=code,
            name=name,
            severity=severity,
            description=description,
            check=fn,
            requires_tag=requires_tag,
        )
        RULES[code] = entry
        return entry

    return register


_PRAGMA_PREFIX = "repro:"
_SUPPRESS_PREFIX = "repro-lint:"


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: str
    source: str
    tree: ast.Module
    tags: frozenset[str]
    #: line -> frozenset of silenced rule codes; ``None`` means all.
    suppressions: dict[int, frozenset[str] | None] = field(default_factory=dict)
    _parents: dict[ast.AST, ast.AST] | None = None

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child -> parent map over the module AST (built lazily)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[child] = parent
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def suppressed(self, line: int, code: str) -> bool:
        codes = self.suppressions.get(line, frozenset())
        return codes is None or code in codes


def _scan_comments(source: str) -> tuple[frozenset[str], dict[int, frozenset[str] | None]]:
    """Extract module pragma tags and per-line suppressions.

    Uses :mod:`tokenize` so comments inside string literals are never
    misread as pragmas.
    """
    tags: set = set()
    suppressions: dict[int, frozenset[str] | None] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return frozenset(), {}
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        text = tok.string.lstrip("#").strip()
        line = tok.start[0]
        standalone = source.splitlines()[line - 1][: tok.start[1]].strip() == ""
        if text.startswith(_PRAGMA_PREFIX):
            body = text[len(_PRAGMA_PREFIX):]
            for raw in body.replace(",", " ").split():
                tags.add(raw.strip())
        elif text.startswith(_SUPPRESS_PREFIX):
            body = text[len(_SUPPRESS_PREFIX):].strip()
            if not body.startswith("disable"):
                continue
            body = body[len("disable"):]
            # Strip the justification ("-- reason") before parsing codes.
            body = body.split("--", 1)[0].strip()
            codes: frozenset[str] | None
            if body.startswith("="):
                codes = frozenset(
                    c.strip() for c in body[1:].replace(",", " ").split() if c.strip()
                )
            else:
                codes = None  # blanket disable
            target = line + 1 if standalone else line
            existing = suppressions.get(target, frozenset())
            if codes is None or existing is None:
                suppressions[target] = None
            else:
                suppressions[target] = existing | codes
    return frozenset(tags), suppressions


def _display_path(path: Path, root: Path | None) -> str:
    base = root if root is not None else Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def parse_file(
    path: Path, root: Path | None = None
) -> tuple[FileContext | None, Finding | None]:
    """Phase-one parse: return ``(context, None)`` or ``(None, finding)``.

    A file that cannot be read or parsed yields a single ``PARSE``
    finding and is excluded from both rule phases.
    """
    display = _display_path(path, root)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return None, Finding(display, 1, 1, "PARSE", f"unreadable file: {exc}", "error")
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        return None, Finding(
            display,
            exc.lineno or 1,
            (exc.offset or 1),
            "PARSE",
            f"syntax error: {exc.msg}",
            "error",
        )
    tags, suppressions = _scan_comments(source)
    ctx = FileContext(
        path=display, source=source, tree=tree, tags=tags, suppressions=suppressions
    )
    return ctx, None


def run_file_rules(ctx: FileContext) -> list[Finding]:
    """Run every registered per-file rule over one parsed context."""
    findings: list[Finding] = []
    for entry in RULES.values():
        if entry.requires_tag is not None and entry.requires_tag not in ctx.tags:
            continue
        for node_or_pos, message in entry.check(ctx):
            if isinstance(node_or_pos, tuple):
                line, col = node_or_pos
            else:
                line = getattr(node_or_pos, "lineno", 1)
                col = getattr(node_or_pos, "col_offset", 0) + 1
            if ctx.suppressed(line, entry.code):
                continue
            findings.append(
                Finding(ctx.path, line, col, entry.code, message, entry.severity)
            )
    findings.sort()
    return findings


def run_file(path: Path, root: Path | None = None) -> list[Finding]:
    """Run every registered per-file rule over one file."""
    ctx, parse_finding = parse_file(path, root)
    if ctx is None:
        return [parse_finding] if parse_finding is not None else []
    return run_file_rules(ctx)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic .py file stream."""
    seen: set = set()
    for p in paths:
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for c in candidates:
            if "__pycache__" in c.parts:
                continue
            if any(part.startswith(".") and part not in (".", "..") for part in c.parts):
                continue
            resolved = c.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield c


def run_paths(
    paths: Iterable[Path],
    root: Path | None = None,
    *,
    project: bool = False,
) -> list[Finding]:
    """Run all rules over every python file reachable from ``paths``.

    With ``project=True`` a second, whole-program phase runs after the
    per-file rules: every successfully parsed file is indexed into a
    :class:`~repro.lint.project.ProjectContext` (symbol table + call
    graph) and the registered project rules (REP007+) run over it.
    """
    # Import for side effect: rule modules self-register on import.
    from . import rules as _rules  # noqa: F401

    findings: list[Finding] = []
    contexts: list[FileContext] = []
    for path in iter_python_files(paths):
        ctx, parse_finding = parse_file(path, root)
        if ctx is None:
            if parse_finding is not None:
                findings.append(parse_finding)
            continue
        contexts.append(ctx)
        findings.extend(run_file_rules(ctx))
    if project:
        from .project import run_project

        findings.extend(run_project(contexts))
    findings.sort()
    return findings
