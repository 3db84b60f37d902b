"""Declarative registry of version-disciplined cache-bearing classes.

The paper's linear-time guarantees lean on a repo-wide protocol: every
structure memoized against an :class:`~repro.events.poset.Execution`
(cut quadruples, extremal vectors, interval-set stacks, ``≪``-subtest
verdicts) records the execution
``version`` it was filled against and must be invalidated — or at least
freshness-checked — before it is read or refilled once the execution
has grown.  A single missed version bump or missed freshness check
silently serves stale Table-1 verdicts.

This module makes the protocol *declarative* so it can be enforced
mechanically.  A cache-bearing class announces its contract with
:func:`versioned_state`::

    @versioned_state(
        version="_version",
        caches=("_cuts", "_extremal"),
        guards=("invalidate", "_fresh"),
    )
    class CutCache: ...

and the static checker (``python -m repro lint``, rules REP001 and
REP005 in :mod:`repro.lint`) verifies every method of the class:

* **REP001** — a method that mutates *versioned state* must bump the
  version attribute; a method that rebinds, clears or refills a
  *cache* attribute must bump, call a guard, or compare the version
  in the same method.
* **REP005** — a method that reads a cache attribute must call a guard
  (or compare the version) *before* the first read.

Layers that cannot import :mod:`repro.core` (the events substrate —
``core`` imports ``events``, not the reverse) declare the identical
contract through the :data:`REGISTRY_ATTR` class attribute instead::

    class GrowableClockTable:
        _REPRO_VERSIONED = {
            "version": "_version",
            "state": ("_blocks", "_counts"),
            "caches": ("_snapshot",),
        }

Both spellings are recognised by the checker; the decorator
additionally registers the class in :data:`VERSIONED_CLASSES` for
runtime introspection and validates guard names at decoration time.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import TypeVar

__all__ = [
    "REGISTRY_ATTR",
    "SPEC_ATTR",
    "VERSIONED_CLASSES",
    "VersionedStateSpec",
    "spec_of",
    "versioned_state",
]

#: Class attribute carrying the contract in decorator-free layers.
REGISTRY_ATTR = "_REPRO_VERSIONED"

#: Class attribute the decorator stores its parsed spec under.
SPEC_ATTR = "__versioned_state__"

_T = TypeVar("_T")


@dataclass(frozen=True)
class VersionedStateSpec:
    """One class's version-discipline contract.

    Attributes
    ----------
    version:
        Instance attribute holding the version the structures were
        built against.  Mutating ``state`` must reassign it; guards
        re-arm it.
    state:
        Attributes whose mutation *is* a logical version change (the
        underlying data: trace, clock blocks, ...).
    caches:
        Attributes memoizing derived structures.  Writes must be
        freshness-aware; reads must be preceded by a guard call or a
        version comparison.
    guards:
        Method names that re-establish freshness (``invalidate*`` /
        ``_fresh``-style).  Guard methods themselves are exempt from
        the rules, as are ``__init__`` and read-only dunders.
    """

    version: str
    state: tuple[str, ...] = ()
    caches: tuple[str, ...] = ()
    guards: tuple[str, ...] = ("invalidate",)


#: Classes registered through the decorator, in registration order.
VERSIONED_CLASSES: list[type] = []


def spec_of(cls: type) -> "VersionedStateSpec | None":
    """The version-discipline contract of ``cls``, or ``None``.

    Resolves both spellings: the decorator's stored spec and the
    :data:`REGISTRY_ATTR` dict used by layers below :mod:`repro.core`.
    """
    spec = cls.__dict__.get(SPEC_ATTR)
    if isinstance(spec, VersionedStateSpec):
        return spec
    raw = cls.__dict__.get(REGISTRY_ATTR)
    if isinstance(raw, dict):
        return VersionedStateSpec(
            version=raw["version"],
            state=tuple(raw.get("state", ())),
            caches=tuple(raw.get("caches", ())),
            guards=tuple(raw.get("guards", ("invalidate",))),
        )
    return None


def versioned_state(
    *,
    version: str,
    state: Sequence[str] = (),
    caches: Sequence[str] = (),
    guards: Sequence[str] = ("invalidate",),
) -> Callable[[type[_T]], type[_T]]:
    """Declare a class's version-discipline contract (see module doc).

    A runtime no-op apart from bookkeeping: the parsed
    :class:`VersionedStateSpec` is stored on the class (where the
    static checker's dynamic tests and :func:`spec_of` find it) and the
    class is appended to :data:`VERSIONED_CLASSES`.

    Raises
    ------
    ValueError
        If a named guard is not a method of the decorated class, or if
        a declared attribute is absent from the class's ``__slots__``
        (when it defines them) — both are almost certainly typos that
        would silently disable the checker.
    """
    spec = VersionedStateSpec(
        version=version, state=tuple(state), caches=tuple(caches),
        guards=tuple(guards),
    )

    def wrap(cls: type[_T]) -> type[_T]:
        for guard in spec.guards:
            if not callable(getattr(cls, guard, None)):
                raise ValueError(
                    f"{cls.__name__}: guard {guard!r} is not a method"
                )
        slots = cls.__dict__.get("__slots__")
        if slots is not None:
            declared = set(slots)
            for attr in (spec.version, *spec.state, *spec.caches):
                if attr not in declared:
                    raise ValueError(
                        f"{cls.__name__}: declared attribute {attr!r} "
                        f"is not in __slots__"
                    )
        setattr(cls, SPEC_ATTR, spec)
        VERSIONED_CLASSES.append(cls)
        return cls

    return wrap
