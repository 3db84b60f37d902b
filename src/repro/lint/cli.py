"""Command-line front end: ``python -m repro lint [paths...]``.

Output is one ``path:line:col: RULE message`` line per finding (the
ruff/flake8 convention, so editors and CI annotators parse it for
free), or a JSON document with ``--format=json`` for machine
consumers.  Exit status: 0 when every finding is grandfathered by the
baseline (or there are none), 1 when new findings exist, 2 on usage
errors.

``--project`` enables the second, whole-program analysis phase
(REP007-REP009); ``--no-project`` forces it off so scripts can pin the
behaviour regardless of future defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baseline import Baseline, partition
from .engine import RULES, Finding, run_paths
from .project import PROJECT_RULES

__all__ = ["add_lint_arguments", "run_lint", "main"]

DEFAULT_BASELINE = Path("lint-baseline.json")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint subcommand's flags to ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file of grandfathered findings (default: "
        f"{DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to grandfather all current findings",
    )
    parser.add_argument(
        "--project",
        dest="project",
        action="store_true",
        default=False,
        help="also run the whole-program phase (call-graph rules REP007+)",
    )
    parser.add_argument(
        "--no-project",
        dest="project",
        action="store_false",
        help="run only the per-file rules (the default, stated explicitly)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append a per-rule finding count summary",
    )


def _resolve_baseline_path(args: argparse.Namespace) -> Path | None:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return args.baseline
    if DEFAULT_BASELINE.exists() or args.write_baseline:
        return DEFAULT_BASELINE
    return None


def _all_rules() -> dict[str, object]:
    merged: dict[str, object] = dict(RULES)
    merged.update(PROJECT_RULES)
    return merged


def _finding_dict(f: Finding) -> dict[str, object]:
    return {
        "path": f.path,
        "line": f.line,
        "col": f.col,
        "rule": f.rule,
        "message": f.message,
        "severity": f.severity,
    }


def _emit_json(
    new: list[Finding],
    grandfathered: list[Finding],
    stale: list[tuple[str, str, str]],
) -> None:
    doc = {
        "findings": [_finding_dict(f) for f in new],
        "grandfathered": len(grandfathered),
        "stale_baseline_entries": [list(key) for key in stale],
        "counts": _rule_counts(new),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))


def _rule_counts(findings: list[Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    return dict(sorted(counts.items()))


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run from parsed arguments; return the exit code."""
    # Rule modules self-register on import (run_paths triggers it), but
    # --list-rules must see them without a run.
    from . import rules as _rules  # noqa: F401

    registry = _all_rules()
    if args.list_rules:
        for code in sorted(registry):
            entry = registry[code]
            phase = " (project)" if code in PROJECT_RULES else ""
            print(
                f"{code} [{entry.severity}] {entry.name}{phase}: "  # type: ignore[attr-defined]
                f"{entry.description}"  # type: ignore[attr-defined]
            )
        return 0

    paths: list[Path] = list(args.paths) if args.paths else [Path("src")]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"error: no such path: {p}", file=sys.stderr)
        return 2

    findings = run_paths(paths, project=args.project)

    baseline_path = _resolve_baseline_path(args)
    baseline = Baseline.load(baseline_path) if baseline_path else Baseline()

    if args.write_baseline:
        if baseline_path is None:  # pragma: no cover - argparse default covers it
            baseline_path = DEFAULT_BASELINE
        Baseline.from_findings(findings, previous=baseline).save(baseline_path)
        print(
            f"wrote {len(findings)} finding(s) to {baseline_path}", file=sys.stderr
        )
        return 0

    new, grandfathered, stale = partition(findings, baseline)
    if args.format == "json":
        _emit_json(new, grandfathered, stale)
        return 1 if new else 0

    for f in new:
        print(f.render())
    if grandfathered:
        print(
            f"({len(grandfathered)} baselined finding(s) suppressed)",
            file=sys.stderr,
        )
    for key in stale:
        print(
            f"stale baseline entry (finding no longer occurs): "
            f"{key[0]} {key[1]} {key[2]!r}",
            file=sys.stderr,
        )
    if args.statistics and new:
        print("--")
        for code, count in _rule_counts(new).items():
            name = getattr(registry.get(code), "name", code)
            print(f"{count:5d}  {code}  {name}")
    if new:
        noun = "finding" if len(new) == 1 else "findings"
        print(f"{len(new)} {noun}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="project-specific static analysis (REP001, REP002, REP004-REP009)",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    return run_lint(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
