#!/usr/bin/env python
"""Regenerate docs/API.md from the packages' ``__all__`` metadata.

One entry per public name; the summary is the first docstring line.
Run from the repository root:  python scripts/gen_api_doc.py
"""

import importlib
import inspect
import io
from pathlib import Path

MODULES = [
    "repro.events", "repro.events.event", "repro.events.trace",
    "repro.events.builder", "repro.events.clocks", "repro.events.lamport",
    "repro.events.poset", "repro.events.serialization",
    "repro.simulation", "repro.simulation.engine", "repro.simulation.process",
    "repro.simulation.network", "repro.simulation.workloads",
    "repro.simulation.scenarios",
    "repro.nonatomic", "repro.nonatomic.event", "repro.nonatomic.proxies",
    "repro.nonatomic.selection",
    "repro.backends", "repro.backends.base", "repro.backends.stats",
    "repro.backends.vector", "repro.backends.reachability",
    "repro.backends.reduction",
    "repro.core", "repro.core.context", "repro.core.cuts",
    "repro.core.relations", "repro.core.family",
    "repro.core.naive", "repro.core.polynomial", "repro.core.linear",
    "repro.core.evaluator", "repro.core.explain", "repro.core.counting",
    "repro.core.hierarchy", "repro.core.axioms", "repro.core.pairwise",
    "repro.core.idioms",
    "repro.monitor", "repro.monitor.predicates", "repro.monitor.checker",
    "repro.monitor.online",
    "repro.service", "repro.service.protocol", "repro.service.log",
    "repro.service.core", "repro.service.server", "repro.service.client",
    "repro.lint", "repro.lint.engine", "repro.lint.project",
    "repro.lint.baseline", "repro.lint.cli",
    "repro.globalstates", "repro.globalstates.lattice",
    "repro.globalstates.detection", "repro.globalstates.observations",
    "repro.realtime", "repro.realtime.timing", "repro.realtime.constraints",
    "repro.apps", "repro.apps.mutex", "repro.apps.multimedia",
    "repro.apps.airdefense", "repro.apps.process_control", "repro.apps.mobile",
    "repro.analysis", "repro.analysis.complexity", "repro.analysis.metrics",
    "repro.analysis.intervalgraph",
    "repro.viz", "repro.viz.spacetime",
    "repro.cli",
]


def generate() -> str:
    out = io.StringIO()
    out.write("# API Reference\n\n")
    out.write(
        "One entry per public name, grouped by module; the summary is the\n"
        "first line of the item's docstring.  Regenerate with\n"
        "`python scripts/gen_api_doc.py`.\n"
    )
    for modname in MODULES:
        mod = importlib.import_module(modname)
        names = getattr(mod, "__all__", None)
        if not names:
            continue
        first = (inspect.getdoc(mod) or "").splitlines()
        summary = first[0] if first else ""
        out.write(f"\n## `{modname}`\n\n{summary}\n\n")
        if hasattr(mod, "__path__") and modname != "repro":
            out.write(
                "Re-exports: "
                + ", ".join(f"`{n}`" for n in sorted(names))
                + "\n"
            )
            continue
        for name in names:
            obj = getattr(mod, name)
            doc = (inspect.getdoc(obj) or "").splitlines()
            item_summary = doc[0] if doc else ""
            kind = (
                "class"
                if inspect.isclass(obj)
                else ("function" if callable(obj) else "data")
            )
            out.write(f"* **`{name}`** ({kind}) — {item_summary}\n")
    return out.getvalue()


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.write_text(generate(), encoding="utf-8")
    print(f"wrote {target}")
