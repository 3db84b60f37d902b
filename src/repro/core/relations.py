"""The causality relations of Table 1 and the 32-relation family ``R``.

Table 1 (from [9], column 2) defines eight relations between event sets
X and Y using first-order quantifiers over the atomic causality ``≺``:

====  =========================  ==========================================
R1    ``∀x∈X ∀y∈Y: x ≺ y``       everything in X precedes everything in Y
R1'   ``∀y∈Y ∀x∈X: x ≺ y``       (same predicate, reversed quantifiers)
R2    ``∀x∈X ∃y∈Y: x ≺ y``       every x precedes some y
R2'   ``∃y∈Y ∀x∈X: x ≺ y``       some y follows all of X
R3    ``∃x∈X ∀y∈Y: x ≺ y``       some x precedes all of Y
R3'   ``∀y∈Y ∃x∈X: x ≺ y``       every y follows some x
R4    ``∃x∈X ∃y∈Y: x ≺ y``       some x precedes some y
R4'   ``∃y∈Y ∃x∈X: x ≺ y``       (same predicate, reversed quantifiers)
====  =========================  ==========================================

Note that R1 ≡ R1' and R4 ≡ R4' as predicates (swapping two quantifiers
of the same kind), while R2 ≢ R2' and R3 ≢ R3' on posets — the paper's
observation about the incomplete hierarchy of [9].

The 32-relation family ``R`` of [11, 12] applies each base relation to a
choice of *proxies*: ``r = R(X̂, Ŷ)`` with ``X̂ ∈ {L_X, U_X}`` and
``Ŷ ∈ {L_Y, U_Y}``.  :class:`RelationSpec` names one member of the
family, e.g. ``R2'(U, L)``; specs have a stable string syntax parsed by
:func:`parse_spec`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable

from ..events.event import EventId
from ..nonatomic.proxies import Proxy

__all__ = [
    "Relation",
    "BASE_RELATIONS",
    "RelationSpec",
    "FAMILY32",
    "parse_spec",
    "quantifier_eval",
    "SubtestKind",
    "SubtestKey",
    "subtest_key",
    "SUBTEST_KEYS",
    "SUBTEST_COLUMNS",
]


class Relation(enum.Enum):
    """One of the eight base relations of Table 1."""

    R1 = "R1"
    R1P = "R1'"
    R2 = "R2"
    R2P = "R2'"
    R3 = "R3"
    R3P = "R3'"
    R4 = "R4"
    R4P = "R4'"

    @property
    def display(self) -> str:
        """The paper's notation, e.g. ``R2'``."""
        return self.value

    @property
    def quantifiers(self) -> str:
        """The quantifier prefix in binding order, e.g. ``"∃y∀x"``."""
        return {
            Relation.R1: "∀x∀y",
            Relation.R1P: "∀y∀x",
            Relation.R2: "∀x∃y",
            Relation.R2P: "∃y∀x",
            Relation.R3: "∃x∀y",
            Relation.R3P: "∀y∃x",
            Relation.R4: "∃x∃y",
            Relation.R4P: "∃y∃x",
        }[self]

    @property
    def is_universal_family(self) -> bool:
        """True for the relations evaluated as a conjunction of ``≪̸``
        tests (R1, R1', R2, R3' — the ``∏`` rows of Table 1)."""
        return self in (Relation.R1, Relation.R1P, Relation.R2, Relation.R3P)

    @property
    def synonym(self) -> "Relation | None":
        """The logically equivalent relation, if any (R1≡R1', R4≡R4')."""
        return {
            Relation.R1: Relation.R1P,
            Relation.R1P: Relation.R1,
            Relation.R4: Relation.R4P,
            Relation.R4P: Relation.R4,
        }.get(self)


#: The eight base relations, in Table 1 order.
BASE_RELATIONS: tuple[Relation, ...] = (
    Relation.R1,
    Relation.R1P,
    Relation.R2,
    Relation.R2P,
    Relation.R3,
    Relation.R3P,
    Relation.R4,
    Relation.R4P,
)


@dataclass(frozen=True, slots=True)
class RelationSpec:
    """One member of the 32-relation family ``R``: ``R(X̂, Ŷ)``.

    ``relation`` is the Table-1 base relation; ``proxy_x``/``proxy_y``
    select which proxy of X and Y it is applied to.  Specs order by
    their display string (stable, human-meaningful).
    """

    relation: Relation
    proxy_x: Proxy
    proxy_y: Proxy
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # specs are dict keys on every family-query hot path; the
        # generated hash would re-hash three enum members per lookup
        object.__setattr__(
            self, "_hash", hash((self.relation, self.proxy_x, self.proxy_y))
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.relation.display}({self.proxy_x.value},{self.proxy_y.value})"

    def __lt__(self, other: "RelationSpec") -> bool:
        if not isinstance(other, RelationSpec):
            return NotImplemented
        return str(self) < str(other)

    @property
    def display(self) -> str:
        """Stable string form, e.g. ``"R2'(U,L)"``."""
        return str(self)


#: All 32 members of the family, ordered by (relation, proxy_x, proxy_y).
FAMILY32: tuple[RelationSpec, ...] = tuple(
    RelationSpec(rel, px, py)
    for rel in BASE_RELATIONS
    for px in (Proxy.L, Proxy.U)
    for py in (Proxy.L, Proxy.U)
)


_SPEC_RE = re.compile(
    r"^\s*(R[1-4]'?)\s*(?:\(\s*([LU])\s*,\s*([LU])\s*\))?\s*$"
)


def parse_spec(text: str) -> "Relation | RelationSpec":
    """Parse ``"R2'"`` into a :class:`Relation` or ``"R2'(U,L)"`` into a
    :class:`RelationSpec`.

    Raises
    ------
    ValueError
        On malformed input.
    """
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(
            f"cannot parse relation spec {text!r}; expected e.g. \"R2'\" or "
            f"\"R2'(U,L)\""
        )
    rel = Relation(m.group(1))
    if m.group(2) is None:
        return rel
    return RelationSpec(rel, Proxy(m.group(2)), Proxy(m.group(3)))


class SubtestKind(enum.Enum):
    """The three vector-test shapes behind every Table-1 condition.

    Theorem 19/20's evaluation conditions all reduce to one comparison
    sweep of a Y-side row against an X-side row:

    * :attr:`FORALL_PAST` — ``∀i: T(⇓Ŷ)[i] ≥ lastX̂[i]`` (R1, R1', R2;
      ``lastX̂ = 0`` off ``N_X̂`` is neutral because cut timestamps are
      nonnegative);
    * :attr:`EXISTS_CUT` — ``∃i: T(⇓Ŷ)[i] ≥ T(⇑X̂)[i]`` (R2', R3, R4,
      R4') — the genuine cut-pair ``≪̸`` tests of Definition 7;
    * :attr:`FORALL_FUTURE` — ``∀i ∈ N_Ŷ: firstŶ[i] ≥ T(∩⇑X̂)[i]``
      (R3'; ``firstŶ = 0`` encodes "node not in ``N_Ŷ``" and is
      skipped).

    These are exactly the full-``|P|``-scan forms of the vectorised
    all-pairs kernel (:mod:`repro.core.pairwise`), so a verdict computed
    once for a subtest key answers *every* spec that canonicalises to
    that key (see :func:`subtest_key`).
    """

    FORALL_PAST = "forall-past"
    EXISTS_CUT = "exists-cut"
    FORALL_FUTURE = "forall-future"


#: A subtest key: ``(kind, (y_stat, Ŷ), (x_stat, X̂))`` where the stat
#: names select rows of :class:`~repro.core.cuts.CutStats` computed for
#: the L/U proxies of Y and X respectively.
SubtestKey = tuple[SubtestKind, tuple[str, str], tuple[str, str]]

# Proxy coincidences used to canonicalise *base* relations onto proxy
# operand rows (Section 2.5: proxies carry one component event per node):
#   C1(L_Y) = C1(Y)    C2(U_Y) = C2(Y)    first(L_Y) = first(Y)
#   C3(L_X) = C3(X)    C4(U_X) = C4(X)    last(U_X)  = last(X)
_CANON_Y = {"c1": "L", "c2": "U", "first": "L"}
_CANON_X = {"last": "U", "c3": "L", "c4": "U"}


def subtest_key(spec: "Relation | RelationSpec") -> SubtestKey:
    """The canonical ``≪`` subtest deciding ``spec`` (Theorem 19/20).

    Maps each of the 40 evaluable specs (8 base relations on the full
    intervals + the 32-member family on proxies) onto the identity of
    the one vector subtest whose verdict decides it.  The map is
    many-to-one three ways:

    * synonyms collapse (R1 ≡ R1', R4 ≡ R4');
    * base relations collapse onto family members through the proxy
      coincidences above (e.g. ``R2(X, Y) ≡ R2(U_X, U_Y)``), so the
      8 base relations introduce **zero** additional keys;
    * within one pair (X, Y) the whole 40-spec query surface costs at
      most 24 distinct verdicts — 12 of kind :attr:`SubtestKind.EXISTS_CUT`
      (the cut-pair ``≪`` evaluations proper, bounded by the 16 ordered
      cut pairs of Table 2) plus 12 extremal-row sweeps.

    This is the memo key of
    :class:`~repro.core.evaluator.SharedVerdictCache` and the operand
    selector of the batch planner and of
    :class:`~repro.core.pairwise.IntervalSetMatrices`.
    """
    cached = _KEY_CACHE.get(spec)
    if cached is None:
        cached = _KEY_CACHE[spec] = _compute_subtest_key(spec)
    return cached


def _compute_subtest_key(spec: "Relation | RelationSpec") -> SubtestKey:
    if isinstance(spec, RelationSpec):
        rel = spec.relation
        px: "str | None" = spec.proxy_x.value
        py: "str | None" = spec.proxy_y.value
    else:
        rel, px, py = spec, None, None

    def yop(stat: str) -> tuple[str, str]:
        return (stat, py if py is not None else _CANON_Y[stat])

    def xop(stat: str) -> tuple[str, str]:
        return (stat, px if px is not None else _CANON_X[stat])

    if rel in (Relation.R1, Relation.R1P):
        return (SubtestKind.FORALL_PAST, yop("c1"), xop("last"))
    if rel is Relation.R2:
        return (SubtestKind.FORALL_PAST, yop("c2"), xop("last"))
    if rel is Relation.R2P:
        return (SubtestKind.EXISTS_CUT, yop("c2"), xop("c4"))
    if rel is Relation.R3:
        return (SubtestKind.EXISTS_CUT, yop("c1"), xop("c3"))
    if rel is Relation.R3P:
        return (SubtestKind.FORALL_FUTURE, yop("first"), xop("c3"))
    if rel in (Relation.R4, Relation.R4P):
        return (SubtestKind.EXISTS_CUT, yop("c2"), xop("c3"))
    raise ValueError(f"unknown relation: {rel!r}")  # pragma: no cover


#: spec -> subtest key memo (the key set is finite: 40 evaluable specs
#: plus whatever equal-but-distinct instances callers construct).
_KEY_CACHE: "dict[Relation | RelationSpec, SubtestKey]" = {}


#: The distinct subtest keys across all 40 evaluable specs (24 of them).
SUBTEST_KEYS: tuple[SubtestKey, ...] = tuple(
    dict.fromkeys(
        [subtest_key(spec) for spec in FAMILY32]
        + [subtest_key(rel) for rel in BASE_RELATIONS]
    )
)

#: The vectorized subtest table: each :data:`SubtestKey` → its fixed
#: column in the ``(pairs, 24)`` verdict matrix of the batched family
#: kernel (:func:`repro.core.family.verdict_matrix`).  Column ``j``
#: answers ``SUBTEST_KEYS[j]``; the formula applied to that column is
#: determined by the key itself — with Y-side operand row ``y`` and
#: X-side operand row ``x`` selected by the key's ``(stat, proxy)``
#: pairs:
#:
#: * :attr:`SubtestKind.FORALL_PAST`   → ``all(y ≥ x)``
#: * :attr:`SubtestKind.EXISTS_CUT`    → ``any(y ≥ x)``
#: * :attr:`SubtestKind.FORALL_FUTURE` → ``all((y == 0) | (y ≥ x))``
#:
#: This ordering is a stable contract: verdict rows cached by
#: :class:`~repro.core.evaluator.SharedVerdictCache` are tuples indexed
#: by these columns.
SUBTEST_COLUMNS: dict[SubtestKey, int] = {
    key: j for j, key in enumerate(SUBTEST_KEYS)
}


def quantifier_eval(
    precedes: Callable[[EventId, EventId], bool],
    relation: Relation,
    xs: Iterable[EventId],
    ys: Iterable[EventId],
) -> bool:
    """Evaluate a base relation directly from its quantifier form.

    This is the ground-truth semantics (column 2 of Table 1) used by the
    naive engine and by every equivalence test.  ``O(|xs| · |ys|)``
    precedence checks in the worst case.

    Empty domains follow first-order convention: a universally
    quantified empty domain is vacuously true, an existentially
    quantified one false.  (Nonatomic events are non-empty by
    construction, so this only matters for direct calls.)
    """
    xs = tuple(xs)
    ys = tuple(ys)
    if relation in (Relation.R1, Relation.R1P):
        return all(precedes(x, y) for x in xs for y in ys)
    if relation is Relation.R2:
        return all(any(precedes(x, y) for y in ys) for x in xs)
    if relation is Relation.R2P:
        return any(all(precedes(x, y) for x in xs) for y in ys)
    if relation is Relation.R3:
        return any(all(precedes(x, y) for y in ys) for x in xs)
    if relation is Relation.R3P:
        return all(any(precedes(x, y) for x in xs) for y in ys)
    if relation in (Relation.R4, Relation.R4P):
        return any(precedes(x, y) for x in xs for y in ys)
    raise ValueError(f"unknown relation: {relation!r}")  # pragma: no cover
