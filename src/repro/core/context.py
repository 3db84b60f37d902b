"""Shared analysis context: the one place timestamps and cuts are built.

The paper's amortization argument (Key Idea 1) is that relation tests
collapse to cheap vector comparisons *once the timestamp and cut
structure is established*.  Before this module, that structure was
scattered: every evaluator re-derived cut quadruples per call, each
application kept private copies of per-interval vectors, and equal
intervals constructed twice paid the fold twice.

:class:`AnalysisContext` centralises the setup state for one
:class:`~repro.events.poset.Execution`:

* a :class:`CutCache` memoizing each nonatomic event's Table-2 cuts and
  extremal-index vectors **keyed by interval identity** (the component
  id set), so distinct-but-equal interval objects share one fold;
* explicit invalidation on trace growth — the cache keys its validity
  on :attr:`Execution.version <repro.events.poset.Execution.version>`,
  which :meth:`Execution.extend` bumps, so stale future-side vectors
  can never be served;
* batched fills (:meth:`CutCache.stats`,
  :meth:`CutCache.family_operands`) that route whole interval sets
  through the context's backend in one columnar pass — the operand
  source of the batch planner, the all-pairs matrices and the shared
  verdict cache.

All three relation engines, the high-level
:class:`~repro.core.evaluator.SynchronizationAnalyzer`, the online
monitor, the application verifiers and the CLI consume this layer;
:meth:`AnalysisContext.of` hands out one shared context per execution
so independent consumers amortize each other's setup work.
"""

from __future__ import annotations

# repro: dtype-strict

import weakref
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..backends.base import CausalityBackend, make_backend
from ..events.event import EventId
from ..events.poset import Execution
from ..nonatomic.event import NonatomicEvent
from ..nonatomic.proxies import Proxy, ProxyDefinition, proxy_of
from .cuts import Cut, CutQuadruple, CutStats
from .family import operand_tensor
from .versioning import versioned_state

if TYPE_CHECKING:
    from ..events.trace import Trace
    from .evaluator import SharedVerdictCache

__all__ = ["AnalysisContext", "CutCache"]

#: Cache key: the interval's component id set (its mathematical identity).
_IntervalKey = frozenset[EventId]


@versioned_state(
    version="_version",
    caches=("_cuts", "_extremal"),
    guards=("invalidate", "_fresh"),
)
class CutCache:
    """Memoized cut quadruples and extremal vectors for one execution.

    Entries are keyed by the interval's component id set, so two
    :class:`~repro.nonatomic.event.NonatomicEvent` objects denoting the
    same set of atomic events share one cut fold — the cross-object
    amortization the per-instance ``NonatomicEvent.cache`` cannot give.

    The cache records the execution :attr:`~Execution.version` it was
    filled against and drops every entry the moment the execution has
    grown (:meth:`Execution.extend`), because future-side cuts (C3/C4)
    and the extremal encodings change when the future does.

    Attributes
    ----------
    hits, misses:
        Lookup counters.  ``hits`` counts cut requests served without a
        fold; benchmarks and the acceptance tests assert on them.
    """

    __slots__ = ("_execution", "_backend", "_version", "_cuts", "_extremal",
                 "hits", "misses")

    def __init__(
        self,
        execution: Execution,
        backend: "CausalityBackend | None" = None,
    ) -> None:
        self._execution = execution
        self._backend = (
            backend if backend is not None else make_backend(None, execution)
        )
        self._version = execution.version
        self._cuts: dict[tuple[_IntervalKey, str], Cut] = {}
        self._extremal: dict[_IntervalKey, tuple[np.ndarray, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0

    @property
    def execution(self) -> Execution:
        """The execution the cached structures belong to."""
        return self._execution

    @property
    def backend(self) -> CausalityBackend:
        """The causality backend filling cache misses."""
        return self._backend

    def __len__(self) -> int:
        return len(self._cuts)

    def invalidate(self) -> None:
        """Drop every entry and re-arm against the current version."""
        self._cuts.clear()
        self._extremal.clear()
        self._backend.invalidate()
        self._version = self._execution.version

    def _fresh(self) -> None:
        if self._execution.version != self._version:
            self.invalidate()

    def _check_interval(self, x: NonatomicEvent) -> None:
        if x.execution is not self._execution:
            raise ValueError("interval does not belong to this context's execution")

    # ------------------------------------------------------------------
    # cuts
    # ------------------------------------------------------------------
    def cut(self, x: NonatomicEvent, which: str) -> Cut:
        """One Table-2 cut of ``x`` (``which`` in C1/C2/C3/C4), memoized.

        Only the requested cut is computed: past-only consumers asking
        for C1/C2 never force the reverse clock pass that C3/C4 need.
        """
        self._check_interval(x)
        self._fresh()
        key = (x.ids, which)
        cached = self._cuts.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = Cut._trusted(self._execution, self._backend.cut_vector(x, which))
        self._cuts[key] = result
        return result

    def quadruple(self, x: NonatomicEvent) -> CutQuadruple:
        """All four Table-2 cuts of ``x`` (computed once — Key Idea 1)."""
        return CutQuadruple(
            self.cut(x, "C1"), self.cut(x, "C2"),
            self.cut(x, "C3"), self.cut(x, "C4"),
        )

    # ------------------------------------------------------------------
    # extremal index vectors
    # ------------------------------------------------------------------
    def extremal(self, x: NonatomicEvent) -> tuple[np.ndarray, np.ndarray]:
        """``(first, last)`` per-node extremal index vectors of ``x``.

        Length-``|P|`` read-only int64 arrays with 0 encoding "node not
        in ``N_X``" — the neutral encoding the vectorised pairwise
        kernel consumes.
        """
        self._check_interval(x)
        self._fresh()
        key = x.ids
        cached = self._extremal.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        num_nodes = self._execution.num_nodes
        first = np.zeros(num_nodes, dtype=np.int64)
        last = np.zeros(num_nodes, dtype=np.int64)
        for node in x.node_set:
            first[node] = x.first_at(node)
            last[node] = x.last_at(node)
        first.setflags(write=False)
        last.setflags(write=False)
        self._extremal[key] = (first, last)
        return first, last

    # ------------------------------------------------------------------
    # columnar batch fill
    # ------------------------------------------------------------------
    def stats(self, intervals: Sequence[NonatomicEvent]) -> CutStats:
        """Stacked cut/extremal matrices for ``intervals``, rows aligned
        with the input order.

        One batched backend pass
        (:meth:`~repro.backends.base.CausalityBackend.cut_stats` — for
        the vector backend, gathers and segmented reductions over the
        ``(|E|, |P|)`` clock matrices, no per-interval fold loop) fills
        every row; each row counts as one :attr:`misses`.  Nothing is
        memoized: batch callers fill each interval once per batch.
        """
        for x in intervals:
            self._check_interval(x)
        self._fresh()
        self.misses += len(intervals)
        return self._backend.cut_stats(intervals)

    def family_operands(
        self,
        intervals: Sequence[NonatomicEvent],
        proxy_definition: ProxyDefinition = ProxyDefinition.PER_NODE,
    ) -> np.ndarray:
        """The ``(k, 12, P)`` family operand tensor for ``intervals``.

        Interleaves every interval's ``(L, U)`` proxies and pays **one**
        batched :meth:`stats` fill for all ``2k`` of them (cold rows go
        through the backend's columnar
        :meth:`~repro.backends.base.CausalityBackend.cut_stats` in a
        single call), then reshapes into the contiguous operand layout
        the batched family kernel
        (:func:`repro.core.family.verdict_matrix`) gathers from.
        """
        proxies: list[NonatomicEvent] = []
        for x in intervals:
            proxies.append(proxy_of(x, Proxy.L, proxy_definition))
            proxies.append(proxy_of(x, Proxy.U, proxy_definition))
        return operand_tensor(self.stats(proxies))


#: One shared context per live execution (weak: contexts die with them).
_SHARED: "weakref.WeakKeyDictionary[Execution, AnalysisContext]" = (
    weakref.WeakKeyDictionary()
)


class AnalysisContext:
    """Shared evaluation substrate for one execution.

    Bundles the execution (whose clock structures are built lazily and
    extended incrementally) with the :class:`CutCache` every consumer
    draws from.  Construct one per execution — or let
    :meth:`AnalysisContext.of` hand out the process-wide shared
    instance — and pass it wherever an
    :class:`~repro.events.poset.Execution` used to go: the relation
    engines, :class:`~repro.core.evaluator.SynchronizationAnalyzer`,
    the predicate detectors and the application verifiers all accept
    either.
    """

    __slots__ = ("_execution", "_backend", "_cut_cache", "_verdicts",
                 "__weakref__")

    def __init__(
        self,
        execution: Execution,
        backend: "str | CausalityBackend | None" = None,
    ) -> None:
        if isinstance(execution, AnalysisContext):  # idempotent wrap
            execution = execution.execution
        self._execution = execution
        if isinstance(backend, CausalityBackend):
            if backend.execution is not execution:
                raise ValueError("backend belongs to a different execution")
            self._backend = backend
        else:
            self._backend = make_backend(backend, execution)
        self._cut_cache = CutCache(execution, self._backend)
        self._verdicts: dict[ProxyDefinition, SharedVerdictCache] = {}

    @classmethod
    def of(cls, execution: "Execution | AnalysisContext") -> "AnalysisContext":
        """The shared context of ``execution`` (created on first use).

        Every consumer resolving its context through here shares one
        cut cache per execution — the repo-wide amortization point.
        """
        if isinstance(execution, AnalysisContext):
            return execution
        ctx = _SHARED.get(execution)
        if ctx is None:
            ctx = _SHARED[execution] = cls(execution)
        return ctx

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def execution(self) -> Execution:
        """The analysed execution."""
        return self._execution

    @property
    def backend(self) -> CausalityBackend:
        """The causality backend answering this context's queries."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the active backend (``vector``/…)."""
        return self._backend.name

    @property
    def cut_cache(self) -> CutCache:
        """The shared per-interval cut/extremal cache."""
        return self._cut_cache

    @property
    def cache_hits(self) -> int:
        """Cut-cache hits (requests served without a fold)."""
        return self._cut_cache.hits

    @property
    def cache_misses(self) -> int:
        """Cut-cache misses (requests that paid the fold)."""
        return self._cut_cache.misses

    # ------------------------------------------------------------------
    # interval helpers
    # ------------------------------------------------------------------
    def interval(
        self, ids: Iterable[EventId], name: str | None = None
    ) -> NonatomicEvent:
        """Create a nonatomic event over this context's execution."""
        return NonatomicEvent(self._execution, ids, name=name)

    def cuts(self, x: NonatomicEvent) -> CutQuadruple:
        """The memoized cut quadruple of ``x``."""
        return self._cut_cache.quadruple(x)

    def cut(self, x: NonatomicEvent, which: str) -> Cut:
        """One memoized Table-2 cut of ``x`` (``"C1"``..``"C4"``)."""
        return self._cut_cache.cut(x, which)

    def extremal(self, x: NonatomicEvent) -> tuple[np.ndarray, np.ndarray]:
        """Memoized ``(first, last)`` extremal index vectors of ``x``."""
        return self._cut_cache.extremal(x)

    # ------------------------------------------------------------------
    # pairwise causality (backend-routed)
    # ------------------------------------------------------------------
    def precedes(self, a: EventId, b: EventId) -> bool:
        """``a ≺ b`` for real events, answered by the active backend."""
        return self._backend.precedes(a, b)

    def concurrent(self, a: EventId, b: EventId) -> bool:
        """``a ∥ b`` for real events, answered by the active backend."""
        return self._backend.concurrent(a, b)

    # ------------------------------------------------------------------
    # batched structures
    # ------------------------------------------------------------------
    def verdict_cache(self, proxy_definition: ProxyDefinition) -> SharedVerdictCache:
        """The shared ``≪``-subtest verdict cache for one proxy
        definition (created on first use).

        One :class:`~repro.core.evaluator.SharedVerdictCache` per
        (context, proxy definition): every analyzer routing a
        whole-family query through here amortizes the same ≤24 subtest
        verdicts per ordered interval pair.
        """
        from .evaluator import SharedVerdictCache

        vc = self._verdicts.get(proxy_definition)
        if vc is None:
            vc = self._verdicts[proxy_definition] = SharedVerdictCache(
                self, proxy_definition
            )
        return vc

    def family_query_stats(self) -> dict[str, int]:
        """Aggregated family verdict-cache counters (all proxy defs).

        ``pairs`` — ordered pairs with a memoized 24-subtest verdict
        row; ``fills`` — batched kernel invocations; ``evals`` /
        ``cut_pair_evals`` — subtest evaluations performed (total /
        cut-pair ``≪`` subset); ``hits`` — verdict-row reads served
        from the cache.  All zero until a family query runs; the CLI
        run-stats line reads this.
        """
        out = {
            "pairs": 0, "fills": 0, "evals": 0,
            "cut_pair_evals": 0, "hits": 0,
        }
        for vc in self._verdicts.values():
            out["pairs"] += vc.pairs_cached
            out["fills"] += vc.fills
            out["evals"] += vc.evals
            out["cut_pair_evals"] += vc.cut_pair_evals
            out["hits"] += vc.hits
        return out

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def extend(self, trace: Trace) -> "AnalysisContext":
        """Grow the underlying execution (append-only) and invalidate.

        Delegates to :meth:`Execution.extend`; the version bump makes
        the cut cache drop every memoized vector, so post-growth
        queries can never see pre-growth future cuts.
        """
        self._execution.extend(trace)
        self._cut_cache.invalidate()  # also re-arms the backend
        for vc in self._verdicts.values():
            vc.invalidate()
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnalysisContext({self._execution!r}, cached={len(self._cut_cache)}, "
            f"hits={self._cut_cache.hits}, misses={self._cut_cache.misses})"
        )
