"""Cuts of an execution and the ``≪`` relation (Sections 2.1–2.2).

A *cut* (Definition 5) is the union of a downward-closed subset of each
local execution ``E_i`` — i.e. a per-node prefix.  Cuts need **not** be
globally consistent global states: the complement-of-causal-future cut
``e↑`` is explicitly not downward-closed in ``(E, ≺)``.

Representation
--------------
A cut is represented by an integer vector ``c`` of length ``|P|`` where
``c[i]`` is the local index of the cut's *surface* event at node ``i``
(Definition 6): ``0`` means the prefix contains only ``⊥_i``; ``k_i+1``
means it extends through ``⊤_i``.  Under the index conventions of this
reproduction the vector doubles as the cut's timestamp ``T(C)``
(Definition 15): ``T(C)[i]`` is the local index of the latest event of
``C`` at node ``i``.

This module implements:

* :class:`Cut` with lattice operations (Lemma 16: union = componentwise
  ``max``, intersection = componentwise ``min``);
* the special cuts ``↓e`` (Def. 8) and ``e↑`` (Def. 9);
* the four cuts of a nonatomic event (Table 2 / Definition 10):
  ``C1(X)=∩⇓X``, ``C2(X)=∪⇓X``, ``C3(X)=∩⇑X``, ``C4(X)=∪⇑X``;
* the ``≪`` relation in its canonical vector form *and* in the four
  literal set-based forms of Definition 7 (property-tested equivalent);
* slow reference (set-based) constructions of all the above, used as
  oracles by tests and as the "no condensation" baseline by benchmarks.
"""

from __future__ import annotations

# repro: hot, dtype-strict

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from ..backends.stats import CutStats
from ..backends.vector import vector_cut_stats
from ..events.event import EventId
from ..events.poset import Execution
from ..nonatomic.event import NonatomicEvent

__all__ = [
    "Cut",
    "CutQuadruple",
    "CutStats",
    "cut_stats",
    "batch_quadruples",
    "past_cut",
    "future_cut",
    "cut_intersection",
    "cut_union",
    "cut_C1",
    "cut_C2",
    "cut_C3",
    "cut_C4",
    "cuts_of",
    "ll",
    "not_ll",
    "ll_form1",
    "not_ll_form2",
    "ll_form3",
    "not_ll_form4",
    "reference_past_set",
    "reference_future_cut_set",
    "cut_from_event_set",
]


class Cut:
    """An execution prefix, represented by its surface index vector.

    Instances are immutable; the vector is a read-only int64 array.
    """

    __slots__ = ("_execution", "_vec")

    def __init__(self, execution: Execution, vector: Sequence[int]) -> None:
        vec = np.asarray(vector, dtype=np.int64).copy()
        if vec.shape != (execution.num_nodes,):
            raise ValueError(
                f"cut vector must have length {execution.num_nodes}, "
                f"got shape {vec.shape}"
            )
        for i, v in enumerate(vec):
            if not (0 <= v <= execution.num_real(i) + 1):
                raise ValueError(
                    f"cut component {i} = {v} out of range "
                    f"[0, {execution.num_real(i) + 1}]"
                )
        vec.setflags(write=False)
        self._execution = execution
        self._vec = vec

    @classmethod
    def _trusted(cls, execution: Execution, vec: np.ndarray) -> "Cut":
        """Wrap an already-validated, read-only int64 vector (no copy).

        Fast path for the columnar batch kernels, whose outputs are
        in-range by construction; skipping the per-component Python
        validation loop is what keeps the one-pass cut fill vectorized
        end to end.
        """
        cut = object.__new__(cls)
        cut._execution = execution
        cut._vec = vec
        return cut

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def execution(self) -> Execution:
        """The execution this cut is a prefix of."""
        return self._execution

    @property
    def vector(self) -> np.ndarray:
        """The surface index vector ``T(C)`` (read-only)."""
        return self._vec

    @property
    def timestamp(self) -> np.ndarray:
        """Alias for :attr:`vector` — the cut timestamp of Def. 15."""
        return self._vec

    def contains(self, eid: EventId) -> bool:
        """True iff the (real or dummy) event ``eid`` belongs to the cut.

        Every cut contains all ``⊥_i`` (index 0) by definition.
        """
        node, idx = eid
        return 0 <= node < len(self._vec) and 0 <= idx <= self._vec[node]

    def surface_ids(self) -> tuple[EventId, ...]:
        """``S(C)`` (Definition 6): the latest event of the cut at every
        node — possibly a dummy ``⊥_i`` (index 0) or ``⊤_i``."""
        return tuple((i, int(v)) for i, v in enumerate(self._vec))

    def real_surface_ids(self) -> tuple[EventId, ...]:
        """The surface events that are real (excluding ``⊥``/``⊤``)."""
        ex = self._execution
        return tuple(
            (i, int(v))
            for i, v in enumerate(self._vec)
            if 1 <= v <= ex.num_real(i)
        )

    @property
    def support(self) -> tuple[int, ...]:
        """Nodes whose prefix extends beyond ``⊥_i`` (``c[i] >= 1``)."""
        return tuple(int(i) for i in np.flatnonzero(self._vec >= 1))

    @property
    def node_set(self) -> tuple[int, ...]:
        """``N_C`` per Definition 1: nodes contributing a *real* event."""
        ex = self._execution
        return tuple(
            i for i, v in enumerate(self._vec) if v >= 1 and ex.num_real(i) >= 1
        )

    def is_bottom(self) -> bool:
        """True iff the cut is ``E^⊥`` (contains only the ``⊥_i``)."""
        return not self._vec.any()

    def event_ids(self) -> set[EventId]:
        """All *real* event ids in the cut (``O(|C|)``; for small cuts,
        tests and reference computations)."""
        ex = self._execution
        out: set[EventId] = set()
        for i, v in enumerate(self._vec):
            hi = min(int(v), ex.num_real(i))
            out.update((i, j) for j in range(1, hi + 1))
        return out

    def is_downward_closed(self) -> bool:
        """True iff the cut is downward-closed in the *global* order
        ``(E, ≺)`` (i.e. a consistent global state).

        ``↓e`` and the past cuts C1/C2 are; ``e↑`` and the future cuts
        C3/C4 generally are not (the paper points this out after
        Lemma 11).  A prefix through ``⊤_i`` is downward-closed only if
        it contains every real event.
        """
        ex = self._execution
        for i, v in enumerate(self._vec):
            v = int(v)
            if v == 0:
                continue
            if v == ex.num_real(i) + 1:
                # ⊤_i is preceded by every real event of every node.
                if any(
                    self._vec[j] < ex.num_real(j) for j in range(len(self._vec))
                ):
                    return False
                continue
            clock = ex.clock((i, v))
            if np.any(clock > self._vec):
                return False
        return True

    # ------------------------------------------------------------------
    # lattice structure
    # ------------------------------------------------------------------
    def union(self, other: "Cut") -> "Cut":
        """Cut union (componentwise ``max``; Lemma 16)."""
        self._check_same(other)
        return Cut(self._execution, np.maximum(self._vec, other._vec))

    def intersection(self, other: "Cut") -> "Cut":
        """Cut intersection (componentwise ``min``; Lemma 16)."""
        self._check_same(other)
        return Cut(self._execution, np.minimum(self._vec, other._vec))

    def issubset(self, other: "Cut") -> bool:
        """Set inclusion ``C ⊆ C'`` (componentwise ``<=``)."""
        self._check_same(other)
        return bool(np.all(self._vec <= other._vec))

    def _check_same(self, other: "Cut") -> None:
        if self._execution is not other._execution:
            raise ValueError("cuts belong to different executions")

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cut):
            return NotImplemented
        return self._execution is other._execution and bool(
            np.array_equal(self._vec, other._vec)
        )

    def __hash__(self) -> int:
        return hash((id(self._execution), self._vec.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cut({list(map(int, self._vec))})"


# ----------------------------------------------------------------------
# special cuts of atomic events (Definitions 8 and 9)
# ----------------------------------------------------------------------
def past_cut(execution: Execution, eid: EventId) -> Cut:
    """``↓e`` (Definition 8): the causal past of ``e``, as a cut.

    ``T(↓e) = T(e)``: component ``i`` is the number of node-``i``
    events causally ``≼ e``.
    """
    execution.check_id(eid)
    return Cut(execution, execution.clock(eid))


def future_cut(execution: Execution, eid: EventId) -> Cut:
    """``e↑`` (Definition 9): the complement of the causal future.

    At each node the prefix extends up to and *including* the earliest
    event causally ``≽ e`` (``⊤_i`` if no real event there is).  With
    reverse timestamps, ``T(e↑)[i] = k_i + 1 - T^R(e)[i]`` — the
    paper's ``|E_i| - T^R(x)[i] - 1`` under its dummy-inclusive count.
    """
    execution.check_id(eid)
    lengths = np.asarray(execution.lengths, dtype=np.int64)
    return Cut(execution, lengths + 1 - execution.rclock(eid))


# ----------------------------------------------------------------------
# lattice folds (Lemma 16)
# ----------------------------------------------------------------------
def cut_intersection(cuts: Iterable[Cut]) -> Cut:
    """Intersection of one or more cuts (componentwise ``min``)."""
    it = iter(cuts)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("cut_intersection requires at least one cut") from None
    vec = first.vector.copy()
    ex = first.execution
    for c in it:
        if c.execution is not ex:
            raise ValueError("cuts belong to different executions")
        np.minimum(vec, c.vector, out=vec)
    return Cut(ex, vec)


def cut_union(cuts: Iterable[Cut]) -> Cut:
    """Union of one or more cuts (componentwise ``max``)."""
    it = iter(cuts)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("cut_union requires at least one cut") from None
    vec = first.vector.copy()
    ex = first.execution
    for c in it:
        if c.execution is not ex:
            raise ValueError("cuts belong to different executions")
        np.maximum(vec, c.vector, out=vec)
    return Cut(ex, vec)


# ----------------------------------------------------------------------
# the four cuts of a nonatomic event (Table 2)
# ----------------------------------------------------------------------
def _stack_clocks(x: NonatomicEvent, ids: Sequence[EventId], reverse: bool) -> np.ndarray:
    ex = x.execution
    fetch = ex.rclock if reverse else ex.clock
    return np.stack([fetch(eid) for eid in ids])


def cut_C1(x: NonatomicEvent) -> Cut:
    """``C1(X) = ∩⇓X = ∩_{x∈X} ↓x`` — the maximum execution prefix
    every component event of X has knowledge of.

    Per the observation at the end of Section 2.3, only the per-node
    *least* component events need to be folded, so the computation is
    an ``O(|N_X| · |P|)`` componentwise ``min``.
    """
    key = ("cut", "C1", x.execution.version)
    cached = x.cache.get(key)
    if cached is None:
        rows = _stack_clocks(x, x.first_ids(), reverse=False)
        cached = Cut(x.execution, rows.min(axis=0))
        x.cache[key] = cached
    return cached


def cut_C2(x: NonatomicEvent) -> Cut:
    """``C2(X) = ∪⇓X = ∪_{x∈X} ↓x`` — the maximum prefix the events of
    X *collectively* have knowledge of.  Folds the per-node *greatest*
    component events with componentwise ``max``."""
    key = ("cut", "C2", x.execution.version)
    cached = x.cache.get(key)
    if cached is None:
        rows = _stack_clocks(x, x.last_ids(), reverse=False)
        cached = Cut(x.execution, rows.max(axis=0))
        x.cache[key] = cached
    return cached


def cut_C3(x: NonatomicEvent) -> Cut:
    """``C3(X) = ∩⇑X = ∩_{x∈X} x↑`` — its surface holds the earliest
    event per node causally preceded by *some* component of X."""
    key = ("cut", "C3", x.execution.version)
    cached = x.cache.get(key)
    if cached is None:
        lengths = np.asarray(x.execution.lengths, dtype=np.int64)
        rows = _stack_clocks(x, x.first_ids(), reverse=True)
        cached = Cut(x.execution, lengths + 1 - rows.max(axis=0))
        x.cache[key] = cached
    return cached


def cut_C4(x: NonatomicEvent) -> Cut:
    """``C4(X) = ∪⇑X = ∪_{x∈X} x↑`` — its surface holds the earliest
    event per node causally preceded by *every* component of X."""
    key = ("cut", "C4", x.execution.version)
    cached = x.cache.get(key)
    if cached is None:
        lengths = np.asarray(x.execution.lengths, dtype=np.int64)
        rows = _stack_clocks(x, x.last_ids(), reverse=True)
        cached = Cut(x.execution, lengths + 1 - rows.min(axis=0))
        x.cache[key] = cached
    return cached


@dataclass(frozen=True, slots=True)
class CutQuadruple:
    """The four cuts of Table 2 for one nonatomic event."""

    c1: Cut  # ∩⇓X
    c2: Cut  # ∪⇓X
    c3: Cut  # ∩⇑X
    c4: Cut  # ∪⇑X


def cuts_of(x: NonatomicEvent) -> CutQuadruple:
    """All four Table-2 cuts of ``x`` (computed once, cached — Key Idea 1)."""
    return CutQuadruple(cut_C1(x), cut_C2(x), cut_C3(x), cut_C4(x))


# ----------------------------------------------------------------------
# columnar batch kernel: all four cuts for a whole interval set at once
# ----------------------------------------------------------------------
# The stacked container (CutStats) and the segmented kernel live in
# repro.backends.stats, below the backend seam; the Execution-level
# fill delegates to the vector backend's implementation.


def cut_stats(
    execution: Execution, intervals: Sequence[NonatomicEvent]
) -> CutStats:
    """All four Table-2 cuts (plus extremal vectors) for a whole
    interval set in one vectorized pass over the columnar clock tables.

    Row ``i`` equals ``cuts_of(intervals[i])``'s vectors — the
    equivalence is property-tested — but the fill is a single
    gather-and-reduce over the ``(|E|, |P|)`` matrices instead of a
    per-interval Python fold, which is what the ``≥5x`` cut-fill
    speedup of ``benchmarks/bench_setup_amortization.py`` measures.

    Delegates to
    :func:`~repro.backends.vector.vector_cut_stats` — the vector-clock
    backend's fill; backend-agnostic callers should go through
    :meth:`repro.core.context.CutCache.stats` instead, which routes to
    the context's configured :class:`~repro.backends.base.CausalityBackend`.
    """
    return vector_cut_stats(execution, intervals)


def batch_quadruples(
    execution: Execution, intervals: Sequence[NonatomicEvent]
) -> list[CutQuadruple]:
    """The cut quadruples of many intervals via one columnar fill.

    Semantically ``[cuts_of(iv) for iv in intervals]`` without the
    per-interval fold loop; the returned cuts wrap read-only rows of
    the batch matrices (zero-copy).
    """
    st = cut_stats(execution, intervals)
    return [
        CutQuadruple(
            Cut._trusted(execution, st.c1[i]),
            Cut._trusted(execution, st.c2[i]),
            Cut._trusted(execution, st.c3[i]),
            Cut._trusted(execution, st.c4[i]),
        )
        for i in range(len(intervals))
    ]


# ----------------------------------------------------------------------
# the ≪ relation (Definition 7)
# ----------------------------------------------------------------------
def ll(c: Cut, cp: Cut) -> bool:
    """``≪(C, C')`` in canonical vector form.

    ``C ≪ C'`` iff ``C'`` is not ``E^⊥`` and, at every node where C
    extends beyond ``⊥``, C's prefix is strictly shorter than C's:
    ``∀i: c[i] = 0 ∨ c[i] < c'[i]``.
    """
    v, w = c.vector, cp.vector
    if not w.any():
        return False
    return bool(np.all((v == 0) | (v < w)))


def not_ll(c: Cut, cp: Cut) -> bool:
    """``≪̸(C, C')`` — some surface event of C equals or happens
    causally after some surface event of C'.  This is the form the
    relation evaluations of Table 1 consume."""
    return not ll(c, cp)


# Literal set-based renderings of Definition 7's four forms.  Forms 1
# and 3 define ≪; forms 2 and 4 (their De Morgan duals) define ≪̸, as
# the paper notes below the definition.  These are O(|P| + |C|) and
# exist to be property-tested against the canonical vector form.

def _surface_non_bottom(c: Cut) -> list[EventId]:
    return [eid for eid in c.surface_ids() if eid[1] != 0]


def ll_form1(c: Cut, cp: Cut) -> bool:
    """Definition 7.1: every non-``⊥`` surface event of C is inside C'
    but not on its surface, and C' is not ``E^⊥``."""
    if cp.is_bottom():
        return False
    surface_cp = set(cp.surface_ids())
    return all(
        z not in surface_cp and cp.contains(z) for z in _surface_non_bottom(c)
    )


def not_ll_form2(c: Cut, cp: Cut) -> bool:
    """Definition 7.2 (a condition for ``≪̸``): some non-``⊥`` surface
    event of C lies on C's surface or outside C', or C' is ``E^⊥``."""
    if cp.is_bottom():
        return True
    surface_cp = set(cp.surface_ids())
    return any(
        z in surface_cp or not cp.contains(z) for z in _surface_non_bottom(c)
    )


def ll_form3(c: Cut, cp: Cut) -> bool:
    """Definition 7.3: no non-``⊥`` surface event of C' is inside C,
    C' is not ``E^⊥``, and the support of C is contained in that of C'.

    The containment clause uses the cut *support* (``c[i] >= 1``), the
    reading under which the four forms coincide even when a prefix ends
    at a ``⊤_i`` (see DESIGN.md §2).
    """
    if cp.is_bottom():
        return False
    if not set(c.support) <= set(cp.support):
        return False
    return all(not c.contains(z) for z in _surface_non_bottom(cp))


def not_ll_form4(c: Cut, cp: Cut) -> bool:
    """Definition 7.4 (a condition for ``≪̸``): some non-``⊥`` surface
    event of C' is inside C, or C' is ``E^⊥``, or C's support is not
    contained in C's."""
    if cp.is_bottom():
        return True
    if not set(c.support) <= set(cp.support):
        return True
    return any(c.contains(z) for z in _surface_non_bottom(cp))


# ----------------------------------------------------------------------
# slow reference constructions (oracles and baselines)
# ----------------------------------------------------------------------
def reference_past_set(execution: Execution, eid: EventId) -> frozenset[EventId]:
    """``↓e`` as an explicit set of real events, computed from pairwise
    precedence tests (no condensation).  Oracle for :func:`past_cut`."""
    return frozenset(
        other
        # repro-lint: disable=REP004 -- deliberately slow reference oracle
        for other in execution.iter_ids()
        if execution.leq(other, eid)
    )


def reference_future_cut_set(
    execution: Execution, eid: EventId
) -> frozenset[EventId]:
    """``e↑`` as an explicit set of real events, straight from
    Definition 9: all events not ``≽ e`` plus, per node, the earliest
    event ``≽ e``.  Oracle for :func:`future_cut` (real part)."""
    not_future = {
        other
        # repro-lint: disable=REP004 -- deliberately slow reference oracle
        for other in execution.iter_ids()
        if not execution.leq(eid, other)
    }
    for i in range(execution.num_nodes):
        for j in range(1, execution.num_real(i) + 1):
            if execution.leq(eid, (i, j)):
                not_future.add((i, j))
                break
    return frozenset(not_future)


def cut_from_event_set(
    execution: Execution, events: Iterable[EventId]
) -> Cut:
    """Build the cut whose real content is exactly ``events``.

    ``events`` must form per-node prefixes of real events (``⊤``
    membership cannot be expressed through this constructor).

    Raises
    ------
    ValueError
        If the set is not prefix-closed on some node.
    """
    vec = np.zeros(execution.num_nodes, dtype=np.int64)
    counts = np.zeros(execution.num_nodes, dtype=np.int64)
    for node, idx in events:
        counts[node] += 1
        if idx > vec[node]:
            vec[node] = idx
    if not np.array_equal(vec, counts):
        raise ValueError("event set is not per-node prefix-closed")
    return Cut(execution, vec)
