"""REP006 — socket and server lifecycle in the service layer.

The networked monitoring service holds kernel objects with real
lifetimes: listening ``asyncio.Server`` instances, stream-writer
transports, and blocking client sockets.  A socket acquired and then
lost to an exception before it is published (stored on ``self``,
returned, or entered into a ``with``) leaks a file descriptor per
occurrence — and in a long-running monitor that is an eventual
``EMFILE`` outage, not a cosmetic warning.

Every *acquiring* call —

* ``asyncio.start_server(...)`` / ``loop.create_server(...)``
* ``asyncio.open_connection(...)``
* ``socket.socket(...)`` / ``socket.create_connection(...)`` /
  ``socket.create_server(...)``

— must be dominated by a construct that guarantees closure on the
failure path between acquisition and publication:

* a ``with`` / ``async with`` statement whose context expression owns
  the call, or
* an enclosing ``try`` (the call in its *body*) whose handlers or
  ``finally`` block reach a ``.close()``, ``.wait_closed()``, or
  ``.__exit__`` call, or
* a *publication guard*: the statement performing the acquisition is
  immediately followed by a ``try`` whose handlers or ``finally``
  reach a closer, so the object is owned by a cleanup scope from the
  first instruction after it exists (the shape the service layer
  uses around ``start_server`` and ``open_connection``).

The rule applies to every module under ``src/repro/service/`` (by
path) and to any module tagged ``repro: service-sockets``.  It guards
the acquisition-to-publication window only; steady-state lifetime is
the owner's concern.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..engine import FileContext, rule

#: ``module-or-object attribute`` call forms that acquire a socket-like
#: kernel object.
_ACQUIRERS = {
    ("asyncio", "start_server"),
    ("asyncio", "open_connection"),
    ("socket", "socket"),
    ("socket", "create_connection"),
    ("socket", "create_server"),
}

#: Attribute names that release such an object.
_CLOSERS = {"close", "wait_closed", "__exit__"}

_TAG = "service-sockets"


def _acquiring_call(node: ast.Call) -> str | None:
    """The dotted name of an acquiring call, or None."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        pair = (func.value.id, func.attr)
        if pair in _ACQUIRERS:
            return f"{pair[0]}.{pair[1]}"
        # loop.create_server(...) on any receiver name
        if func.attr == "create_server":
            return f"{func.value.id}.create_server"
    return None


def _cleanup_reaches_close(stmts: list[ast.stmt]) -> bool:
    for stmt in stmts:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _CLOSERS
            ):
                return True
    return False


def _applies(ctx: FileContext) -> bool:
    path = ctx.path.replace("\\", "/")
    return "/service/" in path or _TAG in ctx.tags


def _stmt_sequences(tree: ast.AST) -> list[list[ast.stmt]]:
    """Every statement list in the module (bodies, orelse, finally)."""
    out: list[list[ast.stmt]] = []
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            seq = getattr(node, field, None)
            if isinstance(seq, list) and seq and isinstance(seq[0], ast.stmt):
                out.append(seq)
    return out


def _publication_guard_follows(
    call: ast.Call, sequences: list[list[ast.stmt]]
) -> bool:
    """True if the statement containing ``call`` is immediately followed
    by a ``try`` whose cleanup path reaches a closer."""
    for seq in sequences:
        for i, stmt in enumerate(seq[:-1]):
            nxt = seq[i + 1]
            if not isinstance(nxt, ast.Try):
                continue
            if not any(sub is call for sub in ast.walk(stmt)):
                continue
            cleanup = list(nxt.finalbody)
            for handler in nxt.handlers:
                cleanup.extend(handler.body)
            if _cleanup_reaches_close(cleanup):
                return True
    return False


@rule(
    "REP006",
    "socket-lifecycle",
    severity="error",
    description=(
        "socket/server acquisition in the service layer must be dominated "
        "by a with statement or a try whose cleanup path reaches close()"
    ),
)
def check_socket_lifecycle(ctx: FileContext) -> Iterator[tuple[object, str]]:
    if not _applies(ctx):
        return
    sequences = _stmt_sequences(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _acquiring_call(node)
        if name is None:
            continue
        if _publication_guard_follows(node, sequences):
            continue
        protected = False
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    if any(sub is node for sub in ast.walk(item.context_expr)):
                        protected = True
                        break
                if protected:
                    break
            if isinstance(ancestor, ast.Try):
                # Shielded only while inside the try body; a call in a
                # handler or else block is past the shield.
                in_body = any(
                    any(sub is node for sub in ast.walk(stmt))
                    for stmt in ancestor.body
                )
                if not in_body:
                    continue
                cleanup = list(ancestor.finalbody)
                for handler in ancestor.handlers:
                    cleanup.extend(handler.body)
                if _cleanup_reaches_close(cleanup):
                    protected = True
                    break
        if not protected:
            yield (
                node,
                f"{name}() can leak the descriptor on an exception before "
                "the object is published; wrap the acquisition in a with "
                "statement or a try whose handler/finally reaches close()",
            )
