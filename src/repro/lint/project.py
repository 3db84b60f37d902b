"""Project-wide analysis phase: symbol index, call graph, project rules.

The per-file rules (REP001, REP002, REP004-REP006) are deliberately
local: one :class:`~repro.lint.engine.FileContext` in, findings out.
That blind spot is exactly the paper's point about synchronization
bugs — the error is invisible in any single process and only shows up
in the cross-process order of events.  The analogous lint bugs are invisible
in any single *file*: a synchronous ``fsync`` reached from a coroutine
three call hops away, a spawned task whose handle no module ever
awaits, a frame type emitted by the client that the server never
dispatches.

This module is the second phase that sees them.  After every file is
parsed, :func:`build_project` constructs a :class:`ProjectContext`:

* a **module index** — every parsed file, keyed by its dotted module
  name (derived from the path: everything under a ``src`` directory is
  package-qualified, anything else is its stem);
* a **symbol table** — module-qualified functions, methods, and
  classes (:class:`FunctionInfo` / :class:`ClassInfo`), with
  async-ness recorded per def and per-class attribute types inferred
  from annotated ``__init__`` parameters, ``self.x: T`` declarations,
  and constructor assignments;
* a **call graph** — one edge per ``Call`` node, resolved through the
  module's import table (including aliases and relative imports),
  ``self``/parameter/local types, and attribute chains like
  ``self.core.submit_event``.  Calls that resolve outside the project
  keep their dotted external name (``os.fsync``, ``asyncio.create_task``)
  so rules can match primitive seeds.

Project rules register with :func:`project_rule` and receive the
:class:`ProjectContext`; they yield ``(file_ctx, node_or_pos, message)``
triples so each finding lands in the file that owns the offending node
— which also means the per-file inline suppressions and the shared
baseline machinery apply to project findings unchanged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator

from .engine import FileContext, Finding, Rule

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "PROJECT_RULES",
    "ProjectContext",
    "build_project",
    "project_rule",
    "run_project",
]

#: Registry of project-phase rules, keyed by rule code.
PROJECT_RULES: dict[str, Rule] = {}

#: Spellings that appear in annotations but never name a concrete
#: class worth tracking (typing machinery, builtins, containers).
_TYPE_NOISE = frozenset({
    "None", "Any", "Optional", "Union", "Callable", "Coroutine", "Awaitable",
    "Iterable", "Iterator", "Sequence", "Mapping", "MutableMapping", "Generator",
    "list", "dict", "tuple", "set", "frozenset", "deque", "type", "object",
    "str", "bytes", "bytearray", "int", "float", "complex", "bool",
    "Final", "ClassVar", "Self", "Literal", "Annotated", "TypeVar",
})

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def project_rule(
    code: str,
    name: str,
    *,
    severity: str = "error",
    description: str,
) -> Callable[
    [Callable[["ProjectContext"], Iterator[tuple[FileContext, object, str]]]],
    Rule,
]:
    """Decorator: register a project-phase check under ``code``."""

    def register(
        fn: Callable[["ProjectContext"], Iterator[tuple[FileContext, object, str]]]
    ) -> Rule:
        if code in PROJECT_RULES:
            raise ValueError(f"duplicate project rule code {code}")
        entry = Rule(
            code=code,
            name=name,
            severity=severity,
            description=description,
            check=fn,  # type: ignore[arg-type]  (project signature)
        )
        PROJECT_RULES[code] = entry
        return entry

    return register


@dataclass
class CallSite:
    """One ``Call`` node inside a function, with its resolved callees.

    ``callees`` holds project qualnames (``pkg.mod.Cls.method``) and/or
    external dotted names (``os.fsync``); empty when unresolvable.
    """

    __slots__ = ("node", "callees")

    node: ast.Call
    callees: tuple[str, ...]


@dataclass
class FunctionInfo:
    """One function or method in the project symbol table."""

    qualname: str
    module: str
    ctx: FileContext
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    cls: str | None = None  #: enclosing class qualname, if any
    calls: list[CallSite] = field(default_factory=list)
    #: immediate nested defs: local name -> qualname
    local_defs: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """One class definition in the project symbol table."""

    qualname: str
    module: str
    ctx: FileContext
    node: ast.ClassDef
    #: base-class refs (project qualnames or external dotted names)
    bases: tuple[str, ...] = ()
    #: direct method name -> function qualname
    methods: dict[str, str] = field(default_factory=dict)
    #: instance attribute -> inferred type refs
    attr_types: dict[str, frozenset[str]] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module: its context plus the local import table."""

    name: str
    ctx: FileContext
    #: true for package ``__init__`` files: relative imports resolve
    #: against the package itself, not its parent
    is_package: bool = False
    #: local alias -> dotted target ("os", "repro.service.log.EventLog")
    imports: dict[str, str] = field(default_factory=dict)
    #: top-level function/class name -> qualname
    toplevel: dict[str, str] = field(default_factory=dict)


class ProjectContext:
    """The whole-program view handed to every ``@project_rule``."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}

    # ------------------------------------------------------------------
    # symbol lookups
    # ------------------------------------------------------------------
    def method(self, cls_qualname: str, name: str) -> str | None:
        """Resolve ``name`` on a class, walking project base classes."""
        seen: set[str] = set()
        stack = [cls_qualname]
        while stack:
            cur = stack.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            info = self.classes.get(cur)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            stack.extend(info.bases)
        return None

    def attr_types_of(self, cls_qualname: str, attr: str) -> frozenset[str]:
        """Inferred types of ``self.attr`` on a class (bases included)."""
        out: set[str] = set()
        seen: set[str] = set()
        stack = [cls_qualname]
        while stack:
            cur = stack.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            info = self.classes.get(cur)
            if info is None:
                continue
            out.update(info.attr_types.get(attr, ()))
            stack.extend(info.bases)
        return frozenset(out)

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """All functions in deterministic (qualname) order."""
        for qualname in sorted(self.functions):
            yield self.functions[qualname]


# ----------------------------------------------------------------------
# module naming and imports
# ----------------------------------------------------------------------
def module_name_for(path: str) -> str:
    """Dotted module name for a display path.

    ``src/pkg/sub/mod.py`` (any prefix before ``src``) becomes
    ``pkg.sub.mod``; ``__init__`` maps to its package.  Paths without a
    ``src`` component fall back to the file stem, which keeps loose
    fixture files addressable.
    """
    parts = list(path.replace("\\", "/").split("/"))
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "?"


def _collect_imports(module: ModuleInfo) -> None:
    # level-1 relative imports drop the trailing module name; a package
    # __init__ *is* its package, so pad so level 1 keeps the full name
    pkg = module.name.split(".")
    if module.is_package:
        pkg = pkg + ["__init__"]
    for node in ast.walk(module.ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # relative: drop the module's own name plus (level - 1)
                # further packages, then append the stated module
                base = pkg[: len(pkg) - node.level]
            else:
                base = []
            if node.module:
                base = base + node.module.split(".")
            prefix = ".".join(base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = (
                    f"{prefix}.{alias.name}" if prefix else alias.name
                )


# ----------------------------------------------------------------------
# definition collection
# ----------------------------------------------------------------------
def _collect_defs(module: ModuleInfo, project: ProjectContext) -> None:
    def visit(body: list[ast.stmt], prefix: str, cls: str | None) -> None:
        for stmt in body:
            if isinstance(stmt, _DEF_NODES):
                qualname = f"{prefix}.{stmt.name}"
                info = FunctionInfo(
                    qualname=qualname,
                    module=module.name,
                    ctx=module.ctx,
                    node=stmt,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                    cls=cls,
                )
                project.functions[qualname] = info
                if prefix == module.name:
                    module.toplevel.setdefault(stmt.name, qualname)
                elif cls is not None and prefix == cls:
                    project.classes[cls].methods.setdefault(stmt.name, qualname)
                # nested defs keep the enclosing class for self-resolution
                visit(stmt.body, qualname, cls)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{prefix}.{stmt.name}"
                project.classes[qualname] = ClassInfo(
                    qualname=qualname,
                    module=module.name,
                    ctx=module.ctx,
                    node=stmt,
                )
                if prefix == module.name:
                    module.toplevel.setdefault(stmt.name, qualname)
                visit(stmt.body, qualname, qualname)

    visit(module.ctx.tree.body, module.name, None)
    # wire immediate nested defs onto their parents
    for qualname, info in project.functions.items():
        if info.module != module.name:
            continue
        parent = qualname.rsplit(".", 1)[0]
        if parent in project.functions:
            project.functions[parent].local_defs[
                qualname.rsplit(".", 1)[1]
            ] = qualname


# ----------------------------------------------------------------------
# name and type resolution
# ----------------------------------------------------------------------
def _annotation_names(node: ast.AST | None) -> list[str]:
    """Dotted type-name spellings mentioned by an annotation."""
    out: list[str] = []
    if node is None:
        return out
    stack: list[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ast.Constant) and isinstance(cur.value, str):
            try:
                stack.append(ast.parse(cur.value, mode="eval").body)
            except SyntaxError:
                pass
        elif isinstance(cur, ast.Name):
            out.append(cur.id)
        elif isinstance(cur, ast.Attribute):
            dotted = _dotted_name(cur)
            if dotted is not None:
                out.append(dotted)
        elif isinstance(cur, (ast.Subscript, ast.BinOp, ast.Tuple, ast.List)):
            stack.extend(ast.iter_child_nodes(cur))
    return [n for n in out if n.split(".")[0] not in _TYPE_NOISE]


def _dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains rooted at a Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Resolver:
    """Import-aware name, type, and call resolution over the index."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project

    # -- names ----------------------------------------------------------
    def ref(self, name: str, module: ModuleInfo) -> str:
        """Resolve a (possibly dotted) local spelling to a project
        qualname or an external dotted name."""
        head, _, rest = name.partition(".")
        if head in module.toplevel:
            target = module.toplevel[head]
        elif head in module.imports:
            target = module.imports[head]
        else:
            target = head
        full = f"{target}.{rest}" if rest else target
        return self._chase(full)

    def _chase(self, full: str, depth: int = 0) -> str:
        """Follow package re-exports: ``repro.service.MonitorService``
        imported from ``repro.service/__init__`` resolves through that
        module's own import table to the defining module's qualname."""
        if depth > 4 or full in self.project.classes or full in self.project.functions:
            return full
        prefix, _, symbol = full.rpartition(".")
        if not prefix:
            return full
        owner = self.project.modules.get(prefix)
        if owner is None:
            return full
        if symbol in owner.toplevel:
            return owner.toplevel[symbol]
        if symbol in owner.imports:
            return self._chase(owner.imports[symbol], depth + 1)
        return full

    def type_refs(self, names: list[str], module: ModuleInfo) -> frozenset[str]:
        out: set[str] = set()
        for name in names:
            ref = self.ref(name, module)
            out.add(ref)
        return frozenset(out)

    # -- expression types ----------------------------------------------
    def expr_types(
        self, expr: ast.AST, fn: FunctionInfo, depth: int = 0
    ) -> frozenset[str]:
        """Candidate class refs an expression may evaluate to."""
        if depth > 5:
            return frozenset()
        module = self.project.modules[fn.module]
        if isinstance(expr, ast.Name):
            if fn.cls is not None and expr.id in ("self", "cls"):
                return frozenset({fn.cls})
            ann = self._param_annotation(fn, expr.id)
            if ann is not None:
                return self.type_refs(_annotation_names(ann), module)
            out: set[str] = set()
            for value in self._local_bindings(fn, expr.id):
                out.update(self.expr_types(value, fn, depth + 1))
            return frozenset(out)
        if isinstance(expr, ast.Attribute):
            out = set()
            for base in self.expr_types(expr.value, fn, depth + 1):
                if base in self.project.classes:
                    out.update(self.project.attr_types_of(base, expr.attr))
            return frozenset(out)
        if isinstance(expr, ast.Call):
            out = set()
            for callee in self.call_targets(expr, fn, depth + 1):
                if callee.endswith(".__init__"):
                    out.add(callee[: -len(".__init__")])
                elif callee in self.project.classes:
                    out.add(callee)
                elif callee not in self.project.functions and "." in callee:
                    # external constructor-ish call: queue.Queue(), etc.
                    out.add(callee)
            return frozenset(out)
        if isinstance(expr, ast.Await):
            return self.expr_types(expr.value, fn, depth + 1)
        return frozenset()

    def _param_annotation(self, fn: FunctionInfo, name: str) -> ast.AST | None:
        args = fn.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg == name:
                return arg.annotation
        return None

    def _local_bindings(self, fn: FunctionInfo, name: str) -> list[ast.AST]:
        out: list[ast.AST] = []
        for node in _own_nodes(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        out.append(node.value)
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id == name
                ):
                    out.append(node.annotation)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        isinstance(item.optional_vars, ast.Name)
                        and item.optional_vars.id == name
                    ):
                        out.append(item.context_expr)
        return out

    # -- calls ----------------------------------------------------------
    def call_targets(
        self, call: ast.Call, fn: FunctionInfo, depth: int = 0
    ) -> tuple[str, ...]:
        """Resolved callee refs for one ``Call`` node."""
        module = self.project.modules[fn.module]
        func = call.func
        out: list[str] = []
        if isinstance(func, ast.Name):
            if func.id in fn.local_defs:
                out.append(fn.local_defs[func.id])
            else:
                out.extend(self._named_target(func.id, module))
        elif isinstance(func, ast.Attribute):
            value = func.value
            # module-attribute form: os.fsync, asyncio.create_task,
            # log_mod.read_records, MonitorCore.from_records
            if isinstance(value, ast.Name):
                dotted = _dotted_name(func)
                if dotted is not None:
                    head = dotted.split(".")[0]
                    if head in module.imports or head in module.toplevel:
                        out.extend(self._named_target(dotted, module))
            if not out:
                for base in self.expr_types(value, fn, depth + 1):
                    if base in self.project.classes:
                        method = self.project.method(base, func.attr)
                        if method is not None:
                            out.append(method)
                    elif "." in base and base not in self.project.functions:
                        out.append(f"{base}.{func.attr}")
        return tuple(dict.fromkeys(out))

    def _named_target(self, name: str, module: ModuleInfo) -> list[str]:
        ref = self.ref(name, module)
        if ref in self.project.functions:
            return [ref]
        if ref in self.project.classes:
            ctor = self.project.method(ref, "__init__")
            return [ctor] if ctor is not None else [f"{ref}.__init__"]
        return [ref]  # external dotted (os.fsync) or bare builtin (open)


def _own_nodes(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own statements, excluding nested def/lambda
    bodies (their calls belong to the nested function)."""
    stack: list[ast.AST] = [fn_node]
    first = True
    while stack:
        node = stack.pop()
        if not first and isinstance(node, (*_DEF_NODES, ast.Lambda)):
            continue
        first = False
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# attribute-type inference
# ----------------------------------------------------------------------
def _collect_attr_types(project: ProjectContext, resolver: _Resolver) -> None:
    for qualname in sorted(project.classes):
        cls = project.classes[qualname]
        module = project.modules[cls.module]
        cls.bases = tuple(
            resolver.ref(name, module)
            for base in cls.node.bases
            if (name := _dotted_name(base)) is not None
        )
        attr_types: dict[str, set[str]] = {}
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                attr_types.setdefault(stmt.target.id, set()).update(
                    resolver.type_refs(_annotation_names(stmt.annotation), module)
                )
        for method_qual in cls.methods.values():
            fn = project.functions[method_qual]
            for node in _own_nodes(fn.node):
                target: ast.AST | None = None
                value: ast.AST | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.annotation
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and value is not None
                ):
                    refs: frozenset[str]
                    if isinstance(node, ast.AnnAssign):
                        refs = resolver.type_refs(
                            _annotation_names(value), module
                        )
                    else:
                        refs = resolver.expr_types(value, fn)
                    if refs:
                        attr_types.setdefault(target.attr, set()).update(refs)
        cls.attr_types = {
            attr: frozenset(refs) for attr, refs in attr_types.items()
        }


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def build_project(contexts: list[FileContext]) -> ProjectContext:
    """Index every parsed file and resolve the call graph."""
    project = ProjectContext()
    for ctx in contexts:
        name = module_name_for(ctx.path)
        if name in project.modules:
            # duplicate module name (two loose files with one stem):
            # keep the first deterministically, skip the shadow
            continue
        is_package = ctx.path.replace("\\", "/").endswith("/__init__.py") or (
            ctx.path == "__init__.py"
        )
        project.modules[name] = ModuleInfo(
            name=name, ctx=ctx, is_package=is_package
        )
    resolver = _Resolver(project)
    for name in sorted(project.modules):
        module = project.modules[name]
        _collect_imports(module)
        _collect_defs(module, project)
    _collect_attr_types(project, resolver)
    for fn in project.iter_functions():
        for node in _own_nodes(fn.node):
            if isinstance(node, ast.Call):
                fn.calls.append(
                    CallSite(node=node, callees=resolver.call_targets(node, fn))
                )
    return project


def run_project(contexts: list[FileContext]) -> list[Finding]:
    """Build the project index and run every registered project rule."""
    from . import rules as _rules  # noqa: F401  (side effect: registration)

    project = build_project(contexts)
    findings: list[Finding] = []
    for code in sorted(PROJECT_RULES):
        entry = PROJECT_RULES[code]
        for ctx, node_or_pos, message in entry.check(project):  # type: ignore[arg-type]
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
