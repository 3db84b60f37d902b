"""High-level facade for evaluating synchronization relations.

:class:`SynchronizationAnalyzer` answers the paper's Problem 4 for a
recorded execution:

(i)  *does a specific relation r(X, Y) hold?* — :meth:`holds`;
(ii) *which relations hold?* — :meth:`all_relations` /
     :meth:`base_relations` / :meth:`strongest`.

The engine is selectable (``"naive"`` / ``"polynomial"`` / ``"linear"``)
so applications, tests and benchmarks exercise the same API while
comparing the three evaluation strategies.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..events.event import EventId
from ..events.poset import Execution
from ..nonatomic.event import NonatomicEvent
from ..nonatomic.proxies import ProxyDefinition
from .context import AnalysisContext
from .counting import ComparisonCounter
from .family import N_SUBTESTS, subtest_verdicts, verdict_matrix
from .versioning import versioned_state
from .hierarchy import evaluate_all_pruned, maximal_true
from .linear import LinearEvaluator
from .naive import NaiveEvaluator
from .pairwise import IntervalSetMatrices
from .polynomial import PolynomialEvaluator
from .relations import (
    BASE_RELATIONS,
    FAMILY32,
    SUBTEST_COLUMNS,
    SUBTEST_KEYS,
    Relation,
    RelationSpec,
    SubtestKey,
    SubtestKind,
    parse_spec,
    subtest_key,
)

__all__ = ["SynchronizationAnalyzer", "SharedVerdictCache", "ENGINES"]

_N_CUT_PAIR = sum(
    1 for k in SUBTEST_KEYS if k[0] is SubtestKind.EXISTS_CUT
)

#: A cached verdict row: 24 booleans indexed by
#: :data:`~repro.core.relations.SUBTEST_COLUMNS`.
VerdictRow = tuple[bool, ...]

#: spec → verdict-row column, precomputed for the whole query surface so
#: family readers are pure tuple indexing (zero canonicalisation work).
_FAMILY_COLS: tuple[tuple[RelationSpec, int], ...] = tuple(
    (spec, SUBTEST_COLUMNS[subtest_key(spec)]) for spec in FAMILY32
)
_BASE_COLS: tuple[tuple[Relation, int], ...] = tuple(
    (rel, SUBTEST_COLUMNS[subtest_key(rel)]) for rel in BASE_RELATIONS
)

#: verdict row → maximal true specs.  ``maximal_true`` is a pure
#: function of the 24-bool row (and costs ~0.2 ms of hierarchy walking),
#: so :meth:`SynchronizationAnalyzer.strongest` memoizes it globally —
#: real executions exhibit few distinct rows.  Bounded; reset on
#: overflow.
_STRONGEST_MEMO: dict[VerdictRow, tuple[RelationSpec, ...]] = {}
_STRONGEST_MEMO_LIMIT = 4096


def _strongest_of_row(row: VerdictRow) -> tuple[RelationSpec, ...]:
    cached = _STRONGEST_MEMO.get(row)
    if cached is None:
        if len(_STRONGEST_MEMO) >= _STRONGEST_MEMO_LIMIT:
            _STRONGEST_MEMO.clear()
        cached = _STRONGEST_MEMO[row] = maximal_true(
            {spec: row[col] for spec, col in _FAMILY_COLS}
        )
    return cached

SpecLike = str | Relation | RelationSpec

#: One batch query: ``(spec, X, Y)``.
Query = tuple[SpecLike, NonatomicEvent, NonatomicEvent]

#: Engine registry: name -> evaluator class.
ENGINES = {
    "naive": NaiveEvaluator,
    "polynomial": PolynomialEvaluator,
    "linear": LinearEvaluator,
}


@versioned_state(
    version="_version",
    caches=("_verdicts",),
    guards=("invalidate", "_fresh"),
)
class SharedVerdictCache:
    """Memoized ``≪``-subtest verdict rows shared across family queries.

    Theorem 19/20 factor every Table-1 condition into one vector subtest
    (:func:`~repro.core.relations.subtest_key`); across the 40 evaluable
    specs (8 base + 32 family) only 24 subtests are distinct per ordered
    pair — 12 genuine cut-pair ``≪`` evaluations plus 12 extremal-row
    sweeps.  This cache stores one 24-bool *verdict row* per ordered
    pair ``(X, Y)`` (columns fixed by
    :data:`~repro.core.relations.SUBTEST_COLUMNS`), so
    :meth:`SynchronizationAnalyzer.all_relations`,
    :meth:`~SynchronizationAnalyzer.base_relations` and
    :meth:`~SynchronizationAnalyzer.strongest` read the whole family
    from one tuple instead of paying per-spec dispatch.

    Rows are produced by the batched kernel
    (:func:`~repro.core.family.verdict_matrix`): :meth:`fill_pairs`
    fills the missing pairs' operand tensor — **one** batched
    :meth:`~repro.core.context.CutCache.family_operands` call over their
    distinct intervals — and scatters the resulting ``(pairs, 24)``
    verdict matrix into the memo in one pass, with zero per-pair Python
    dispatch.  Entries are keyed
    to the execution :attr:`~repro.events.poset.Execution.version`;
    growth drops every verdict, so stale future-side subtests can never
    be served.

    Attributes
    ----------
    evals:
        Subtest evaluations actually performed (24 per filled pair).
    cut_pair_evals:
        The subset of :attr:`evals` of kind
        :attr:`~repro.core.relations.SubtestKind.EXISTS_CUT` — the
        cut-pair ``≪`` evaluations proper (≤ 12 per ordered pair, well
        under the 16 ordered Table-2 cut pairs).
    hits:
        Verdict-row reads served from the cache (one per family query
        on an already-filled pair, however many specs that query names).
    fills:
        Batched kernel invocations (each fill covers every missing pair
        of one query batch).
    """

    __slots__ = ("context", "proxy_definition", "_version", "_verdicts",
                 "evals", "cut_pair_evals", "hits", "fills")

    def __init__(
        self,
        context: "Execution | AnalysisContext",
        proxy_definition: ProxyDefinition = ProxyDefinition.PER_NODE,
    ) -> None:
        self.context = AnalysisContext.of(context)
        self.proxy_definition = proxy_definition
        self._version = self.context.execution.version
        self._verdicts: dict[
            tuple[frozenset[EventId], frozenset[EventId]], VerdictRow
        ] = {}
        self.evals = 0
        self.cut_pair_evals = 0
        self.hits = 0
        self.fills = 0

    def invalidate(self) -> None:
        """Drop every verdict row; re-arm on current version."""
        self._verdicts.clear()
        self._version = self.context.execution.version

    def _fresh(self) -> None:
        if self.context.execution.version != self._version:
            self.invalidate()

    @property
    def pairs_cached(self) -> int:
        """Ordered pairs with a memoized verdict row."""
        self._fresh()
        return len(self._verdicts)

    def fill_pairs(
        self, pairs: Sequence[tuple[NonatomicEvent, NonatomicEvent]]
    ) -> None:
        """Batch-fill the verdict rows of every not-yet-cached pair.

        One pass end to end: missing pairs are deduplicated, their
        distinct intervals' ``(k, 12, P)`` operand tensor is filled by
        **one** batched :meth:`~repro.core.context.CutCache.family_operands`
        call, the tensor is pushed through
        :func:`~repro.core.family.verdict_matrix` once, and the
        ``(pairs, 24)`` result is scattered into the memo.  Already-
        cached pairs are skipped without touching the counters.
        """
        self._fresh()
        verdicts = self._verdicts
        todo: dict[
            tuple[frozenset[EventId], frozenset[EventId]],
            tuple[NonatomicEvent, NonatomicEvent],
        ] = {}
        for x, y in pairs:
            pk = (x.ids, y.ids)
            if pk not in verdicts and pk not in todo:
                todo[pk] = (x, y)
        if not todo:
            return
        row_of: dict[frozenset[EventId], int] = {}
        intervals: list[NonatomicEvent] = []
        for x, y in todo.values():
            for z in (x, y):
                if z.ids not in row_of:
                    row_of[z.ids] = len(intervals)
                    intervals.append(z)
        ops = self.context.cut_cache.family_operands(
            intervals, self.proxy_definition
        )
        xs = np.fromiter(
            (row_of[kx] for kx, _ky in todo), np.intp, count=len(todo)
        )
        ys = np.fromiter(
            (row_of[ky] for _kx, ky in todo), np.intp, count=len(todo)
        )
        matrix = verdict_matrix(ops, xs, ys)
        for pk, row in zip(todo, matrix, strict=True):
            verdicts[pk] = tuple(row.tolist())
        self.fills += 1
        self.evals += N_SUBTESTS * len(todo)
        self.cut_pair_evals += _N_CUT_PAIR * len(todo)

    def verdict_row(
        self, x: NonatomicEvent, y: NonatomicEvent
    ) -> VerdictRow:
        """The 24-subtest verdict row of ``(x, y)``, filling on demand.

        A read served from the memo counts one :attr:`hits`; a missing
        pair pays a single-pair :meth:`fill_pairs` (batch callers should
        pre-fill, making every subsequent read a hit).
        """
        self._fresh()
        pk = (x.ids, y.ids)
        row = self._verdicts.get(pk)
        if row is None:
            self.fill_pairs(((x, y),))
            return self._verdicts[pk]
        self.hits += 1
        return row

    def holds(
        self,
        spec: "Relation | RelationSpec",
        x: NonatomicEvent,
        y: NonatomicEvent,
    ) -> bool:
        """Verdict of ``spec`` on ``(x, y)`` through the subtest memo.

        The first query on a pair pays the batched 24-subtest fill;
        every subsequent query on that pair — whatever the spec — is a
        tuple read.
        """
        return self.verdict_row(x, y)[SUBTEST_COLUMNS[subtest_key(spec)]]


class SynchronizationAnalyzer:
    """Evaluate synchronization conditions over one execution.

    Parameters
    ----------
    execution:
        The analysed execution, or an
        :class:`~repro.core.context.AnalysisContext`.  A bare execution
        resolves to its shared context, so every analyzer (and engine)
        over the same execution amortizes one cut cache.
    engine:
        ``"linear"`` (default, the paper's algorithm), ``"polynomial"``
        (prior-work baseline) or ``"naive"`` (definition-level).
    proxy_definition:
        Proxy definition for 32-family specs (Def. 2 per-node default).
    counted:
        If True, attach a :class:`ComparisonCounter` (exposed as
        :attr:`counter`) recording every integer comparison.
    check_disjoint:
        If True (default), :meth:`holds` raises when X and Y share
        atomic events — the precondition under which the linear
        conditions are exact.  Disable to explore the boundary
        behaviour the paper glosses (see DESIGN.md §2).

    Examples
    --------
    >>> from repro import TraceBuilder, SynchronizationAnalyzer
    >>> b = TraceBuilder(2)
    >>> a1 = b.internal(0); m = b.send(0); r = b.recv(1, m); y1 = b.internal(1)
    >>> ex = b.execute()
    >>> an = SynchronizationAnalyzer(ex)
    >>> X = an.interval([a1], name="X"); Y = an.interval([y1], name="Y")
    >>> an.holds("R1", X, Y)
    True
    """

    def __init__(
        self,
        execution: "Execution | AnalysisContext",
        engine: str = "linear",
        proxy_definition: ProxyDefinition = ProxyDefinition.PER_NODE,
        counted: bool = False,
        check_disjoint: bool = True,
        **engine_kwargs: object,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {sorted(ENGINES)}"
            )
        self.context = AnalysisContext.of(execution)
        self.execution = self.context.execution
        self.engine_name = engine
        self.proxy_definition = proxy_definition
        self.counter = ComparisonCounter() if counted else None
        self.check_disjoint = check_disjoint
        self._engine = ENGINES[engine](
            self.context,
            counter=self.counter,
            proxy_definition=proxy_definition,
            **engine_kwargs,
        )
        # Whole-family queries route through the shared ≪-subtest verdict
        # cache (Theorem 19/20 factoring) when that is behaviour-neutral:
        # the linear engine's verdicts match the subtest forms exactly,
        # PER_NODE proxies satisfy the operand coincidences, and a
        # counted analyzer must keep its per-spec comparison accounting.
        self._verdict_cache = (
            self.context.verdict_cache(proxy_definition)
            if engine == "linear"
            and proxy_definition is ProxyDefinition.PER_NODE
            and not counted
            and not engine_kwargs
            else None
        )

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def interval(
        self, ids: Iterable[EventId], name: str | None = None
    ) -> NonatomicEvent:
        """Create a nonatomic event over this execution."""
        return NonatomicEvent(self.execution, ids, name=name)

    @property
    def comparisons(self) -> int:
        """Total integer comparisons recorded (0 if not ``counted``)."""
        return self.counter.total if self.counter is not None else 0

    @property
    def verdict_cache(self) -> "SharedVerdictCache | None":
        """The shared ``≪``-subtest verdict cache backing the family
        queries, or ``None`` when this analyzer's configuration (engine,
        proxy definition, counting, ablations) bypasses it."""
        return self._verdict_cache

    def _check_pair(self, x: NonatomicEvent, y: NonatomicEvent) -> None:
        if self.check_disjoint and not x.is_disjoint(y):
            raise ValueError(
                "X and Y share atomic events; the evaluation conditions are "
                "exact only for disjoint intervals (pass check_disjoint=False "
                "to evaluate anyway)"
            )

    # ------------------------------------------------------------------
    # Problem 4 (i): one relation
    # ------------------------------------------------------------------
    def holds(self, spec: SpecLike, x: NonatomicEvent, y: NonatomicEvent) -> bool:
        """Does relation ``spec`` hold between ``x`` and ``y``?

        ``spec`` may be a :class:`Relation` (base relation applied to
        the full intervals), a :class:`RelationSpec` (32-family member
        applied to proxies), or a string such as ``"R2'"`` / ``"R2'(U,L)"``.
        """
        self._check_pair(x, y)
        if isinstance(spec, str):
            spec = parse_spec(spec)
        return self._engine_holds(spec, x, y)

    # ------------------------------------------------------------------
    # batched queries
    # ------------------------------------------------------------------
    def batch_holds(
        self, queries: "Sequence[Query] | Iterable[Query]"
    ) -> list[bool]:
        """Answer many ``(spec, X, Y)`` queries, batched.

        One planning pass gives every distinct interval one row of a
        ``(k, 12, P)`` family operand tensor per proxy definition it is
        read under — per-node for base relations, the analyzer's
        :attr:`proxy_definition` for family specs — and groups the
        queries by subtest key (:func:`~repro.core.relations.subtest_key`).
        Each needed tensor costs one batched
        :meth:`~repro.core.context.CutCache.family_operands` fill (a
        single fill when both definitions coincide), and each group one
        fancy-indexed gather (:func:`~repro.core.family.subtest_verdicts`)
        instead of per-query Python calls.  Results align with the input
        order.

        Notes
        -----
        * Verdicts are identical to :meth:`holds` on every query (the
          vectorised conditions are the sound full-``|P|``-scan forms).
        * The batch path is its own evaluation strategy: engine choice
          does not apply to it, and it does not tick the
          :class:`ComparisonCounter` (it is vectorised; count-exact
          experiments should query the scalar path).
        * ``check_disjoint`` applies per query, exactly as in
          :meth:`holds`.
        """
        qs = list(queries)
        check = self.check_disjoint
        # proxy definition -> (interval identity -> operand row, rows)
        tensors: dict[
            ProxyDefinition,
            tuple[dict[frozenset[EventId], int], list[NonatomicEvent]],
        ] = {}
        # (proxy definition, subtest key) -> (query indices, x rows,
        # y rows, that definition's row map and intervals)
        groups: dict[tuple[ProxyDefinition, SubtestKey], tuple] = {}
        # keyed by the id of the spec object as given (kept alive by
        # ``qs``): each distinct object is parsed and hashed once
        group_of_obj: dict[int, tuple] = {}
        for i, (spec, x, y) in enumerate(qs):
            if check and not x.ids.isdisjoint(y.ids):
                self._check_pair(x, y)  # raises with the full message
            group = group_of_obj.get(id(spec))
            if group is None:
                parsed = parse_spec(spec) if isinstance(spec, str) else spec
                pd = (
                    ProxyDefinition.PER_NODE
                    if isinstance(parsed, Relation)
                    else self.proxy_definition
                )
                plan = tensors.get(pd)
                if plan is None:
                    plan = tensors[pd] = ({}, [])
                gkey = (pd, subtest_key(parsed))
                group = groups.get(gkey)
                if group is None:
                    group = groups[gkey] = ([], [], [], *plan)
                group_of_obj[id(spec)] = group
            idxs, xs, ys, row_of, intervals = group
            idxs.append(i)
            row = row_of.get(x.ids)
            if row is None:
                row = row_of[x.ids] = len(intervals)
                intervals.append(x)
            xs.append(row)
            row = row_of.get(y.ids)
            if row is None:
                row = row_of[y.ids] = len(intervals)
                intervals.append(y)
            ys.append(row)

        cache = self.context.cut_cache
        ops = {
            pd: cache.family_operands(intervals, pd)
            for pd, (_row_of, intervals) in tensors.items()
        }
        out: list[bool] = [False] * len(qs)
        for (pd, key), (idxs, xs, ys, _row_of, _ivs) in groups.items():
            verdicts = subtest_verdicts(
                ops[pd], key,
                np.asarray(xs, dtype=np.intp), np.asarray(ys, dtype=np.intp),
            )
            for i, v in zip(idxs, verdicts.tolist(), strict=True):
                out[i] = v
        return out

    def _engine_holds(
        self,
        spec: "Relation | RelationSpec",
        x: NonatomicEvent,
        y: NonatomicEvent,
    ) -> bool:
        """Scalar-path dispatch for an already-parsed spec."""
        if isinstance(spec, Relation):
            return self._engine.evaluate(spec, x, y)
        return self._engine.evaluate_spec(spec, x, y)

    # ------------------------------------------------------------------
    # Problem 4 (ii): all relations
    # ------------------------------------------------------------------
    def base_relations(
        self, x: NonatomicEvent, y: NonatomicEvent
    ) -> dict[Relation, bool]:
        """Evaluate all 8 base relations ``R(X, Y)``."""
        self._check_pair(x, y)
        vc = self._verdict_cache
        if vc is None:
            return {r: self._engine_holds(r, x, y) for r in BASE_RELATIONS}
        row = vc.verdict_row(x, y)
        return {r: row[c] for r, c in _BASE_COLS}

    def all_relations(
        self,
        x: NonatomicEvent,
        y: NonatomicEvent,
        prune: bool = False,
    ) -> dict[RelationSpec, bool]:
        """Evaluate all 32 family relations ``r(X, Y)``.

        On the default configuration (linear engine, per-node proxies,
        uncounted) the whole family is read from one 24-bool verdict
        row of the shared ``≪``-subtest cache, produced by the batched
        kernel (:func:`~repro.core.family.verdict_matrix`) — zero
        per-spec Python dispatch.  ``prune`` is then irrelevant (the
        row already answers everything) and ignored.

        On bypass configurations (non-linear engines, global proxies,
        counted analyzers, engine ablations) the per-spec scalar path
        runs instead; there ``prune=True`` infers results implied by
        already-evaluated ones through the hierarchy (ablation A-3).
        The answer is identical on every path.
        """
        self._check_pair(x, y)
        vc = self._verdict_cache
        if vc is None:
            if prune:
                results, _ = evaluate_all_pruned(
                    lambda spec: self._engine_holds(spec, x, y), FAMILY32
                )
                return results
            return {
                spec: self._engine_holds(spec, x, y) for spec in FAMILY32
            }
        row = vc.verdict_row(x, y)
        return {spec: row[c] for spec, c in _FAMILY_COLS}

    def strongest(
        self, x: NonatomicEvent, y: NonatomicEvent
    ) -> tuple[RelationSpec, ...]:
        """The strongest 32-family relations holding between x and y.

        These are the maximal true relations under the implication
        hierarchy — the most informative synchronization facts.  On the
        cached configuration the hierarchy walk itself is memoized per
        distinct verdict row, so repeated sweeps cost one tuple lookup.
        """
        vc = self._verdict_cache
        if vc is not None:
            self._check_pair(x, y)
            return _strongest_of_row(vc.verdict_row(x, y))
        return maximal_true(self.all_relations(x, y, prune=True))

    # ------------------------------------------------------------------
    # Problem 4 (ii), batched: many pairs in one kernel pass
    # ------------------------------------------------------------------
    def _fill_family(
        self, pairs: Sequence[tuple[NonatomicEvent, NonatomicEvent]]
    ) -> "SharedVerdictCache | None":
        """Validate ``pairs`` and batch-fill their verdict rows (cached
        configurations); returns the cache, or ``None`` on bypass."""
        for x, y in pairs:
            self._check_pair(x, y)
        vc = self._verdict_cache
        if vc is not None:
            vc.fill_pairs(pairs)
        return vc

    def all_relations_batch(
        self, pairs: Iterable[tuple[NonatomicEvent, NonatomicEvent]]
    ) -> list[dict[RelationSpec, bool]]:
        """:meth:`all_relations` for many ordered pairs at once.

        On the cached configuration every missing pair is answered by
        **one** batched operand gather + one
        :func:`~repro.core.family.verdict_matrix` pass (all 24 subtests
        × all pairs), then scattered; results align with the input
        order and are identical to per-pair :meth:`all_relations`.
        Bypass configurations fall back to the scalar loop.
        """
        seq = list(pairs)
        vc = self._fill_family(seq)
        if vc is None:
            return [
                {spec: self._engine_holds(spec, x, y) for spec in FAMILY32}
                for x, y in seq
            ]
        return [
            {spec: row[c] for spec, c in _FAMILY_COLS}
            for row in (vc.verdict_row(x, y) for x, y in seq)
        ]

    def base_relations_batch(
        self, pairs: Iterable[tuple[NonatomicEvent, NonatomicEvent]]
    ) -> list[dict[Relation, bool]]:
        """:meth:`base_relations` for many ordered pairs at once
        (one kernel pass on the cached configuration)."""
        seq = list(pairs)
        vc = self._fill_family(seq)
        if vc is None:
            return [
                {r: self._engine_holds(r, x, y) for r in BASE_RELATIONS}
                for x, y in seq
            ]
        return [
            {r: row[c] for r, c in _BASE_COLS}
            for row in (vc.verdict_row(x, y) for x, y in seq)
        ]

    def strongest_batch(
        self, pairs: Iterable[tuple[NonatomicEvent, NonatomicEvent]]
    ) -> list[tuple[RelationSpec, ...]]:
        """:meth:`strongest` for many ordered pairs at once
        (one kernel pass + memoized hierarchy walks on the cached
        configuration)."""
        seq = list(pairs)
        vc = self._fill_family(seq)
        if vc is None:
            return [self.strongest(x, y) for x, y in seq]
        return [_strongest_of_row(vc.verdict_row(x, y)) for x, y in seq]

    # ------------------------------------------------------------------
    # all-pairs evaluation
    # ------------------------------------------------------------------
    def relation_matrix(
        self,
        intervals: "Iterable[NonatomicEvent]",
        spec: SpecLike,
        mask_diagonal: bool = True,
    ) -> np.ndarray:
        """``M[i, j] = spec(intervals[i], intervals[j])`` for all pairs.

        Delegates to the vectorised kernel of
        :mod:`repro.core.pairwise` (NumPy broadcasting over the family
        operand tensor, filled through this analyzer's cut cache) — the
        fast path for all-pairs sweeps.
        Engine choice does not apply here; the kernel is its own
        (equivalent) evaluation strategy.
        """
        if isinstance(spec, str):
            spec = parse_spec(spec)
        mats = IntervalSetMatrices(list(intervals), cache=self.context.cut_cache)
        if isinstance(spec, Relation):
            return mats.relation_matrix(spec, mask_diagonal=mask_diagonal)
        return mats.spec_matrix(
            spec,
            proxy_definition=self.proxy_definition,
            mask_diagonal=mask_diagonal,
        )
