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

from collections.abc import Callable, Iterable, Sequence
from operator import itemgetter
from typing import TypeVar

import numpy as np

from ..backends.stats import extrema_matrices, flatten_extrema
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

_T = TypeVar("_T")

#: spec → verdict-row column, precomputed for the whole query surface so
#: family readers are pure tuple indexing (zero canonicalisation work).
_FAMILY_COLS: tuple[tuple[RelationSpec, int], ...] = tuple(
    (spec, SUBTEST_COLUMNS[subtest_key(spec)]) for spec in FAMILY32
)
_BASE_COLS: tuple[tuple[Relation, int], ...] = tuple(
    (rel, SUBTEST_COLUMNS[subtest_key(rel)]) for rel in BASE_RELATIONS
)

#: Per-verdict-row memos: the family and base template dicts of a row
#: (handed out as copies) and the maximal true specs of a row
#: (``maximal_true`` costs ~0.2 ms of hierarchy walking).  Each is a pure
#: function of the 24-bool row, and real executions exhibit few distinct
#: rows, so they are kept globally.  Bounded; reset on overflow.
_FAMILY_TEMPLATES: dict[VerdictRow, dict[RelationSpec, bool]] = {}
_BASE_TEMPLATES: dict[VerdictRow, dict[Relation, bool]] = {}
_STRONGEST_MEMO: dict[VerdictRow, tuple[RelationSpec, ...]] = {}
_ROW_MEMO_LIMIT = 4096


def _family_template(row: VerdictRow) -> dict[RelationSpec, bool]:
    """The ``spec -> verdict`` dict of the 32 family specs of ``row``;
    shared, so callers hand out copies (C-level, hashing nothing)."""
    template = _FAMILY_TEMPLATES.get(row)
    if template is None:
        if len(_FAMILY_TEMPLATES) >= _ROW_MEMO_LIMIT:
            _FAMILY_TEMPLATES.clear()
        template = _FAMILY_TEMPLATES[row] = {
            spec: row[col] for spec, col in _FAMILY_COLS
        }
    return template


def _base_template(row: VerdictRow) -> dict[Relation, bool]:
    """The shared ``relation -> verdict`` dict of the 8 base relations
    of ``row``."""
    template = _BASE_TEMPLATES.get(row)
    if template is None:
        if len(_BASE_TEMPLATES) >= _ROW_MEMO_LIMIT:
            _BASE_TEMPLATES.clear()
        template = _BASE_TEMPLATES[row] = {
            rel: row[col] for rel, col in _BASE_COLS
        }
    return template


def _strongest_of_row(row: VerdictRow) -> tuple[RelationSpec, ...]:
    cached = _STRONGEST_MEMO.get(row)
    if cached is None:
        if len(_STRONGEST_MEMO) >= _ROW_MEMO_LIMIT:
            _STRONGEST_MEMO.clear()
        cached = _STRONGEST_MEMO[row] = maximal_true(_family_template(row))
    return cached


def _per_row(
    fn: Callable[[VerdictRow], _T], rows: list[VerdictRow]
) -> list[_T]:
    """``[fn(row) for row in rows]``, calling ``fn`` once per distinct
    row and reading the rest through C-level ``map``s."""
    of = {row: fn(row) for row in set(rows)}
    return list(map(of.__getitem__, rows))


#: Row ``i`` of a ``(Q, 24)`` verdict matrix packs to the integer
#: ``matrix[i] @ _ROW_WEIGHTS``: equal codes, equal rows.
_ROW_WEIGHTS = np.left_shift(1, np.arange(N_SUBTESTS, dtype=np.int64))


def _row_of_code(code: int) -> VerdictRow:
    """The verdict row packed into ``code`` (see :data:`_ROW_WEIGHTS`)."""
    return tuple(bool(code >> col & 1) for col in range(N_SUBTESTS))


#: Batch size from which :func:`_by_identity` uses NumPy.  Measured
#: (2-core x86_64, numpy 2.4): the two paths tie between 128 and 256
#: objects; at 2 objects the dict passes take 2 us against NumPy's
#: 12 us, at 32,512 objects 6.5 ms against 3.3 ms.
_NUMPY_MIN = 256

#: When :meth:`SynchronizationAnalyzer._check_pairs` runs the range
#: test.  It costs 5-9 us per distinct interval; the exact test of a
#: pair costs one set probe (8-28 ns) per id of its smaller interval
#: (2-core x86_64, CPython 3.11; 24-id and 250-id intervals).  So the
#: range test pays once the batch's exact test would probe more than
#: about 215-750 ids per distinct interval: all-pairs batches of large
#: intervals (crossover at 1 pair per interval) but not small batches
#: of small ones (crossover at 25-30 pairs per interval).
_RANGE_TEST_IDS_PER_INTERVAL = 400
#: Bound on the ``(k, k, P)`` temporaries of :func:`_range_overlaps`
#: (elements; a few MB); a batch over more distinct intervals sends
#: every pair to the exact test.
_RANGE_TEST_MAX = 1 << 22


def _columns(rows: Sequence[Sequence[_T]], width: int) -> list[list[_T]]:
    """The columns of a batch of pairs or queries, as lists.

    ``zip(*rows)`` would allocate one tracked iterator per row, enough
    to set off several collections of the garbage collector on a large
    batch; ``itemgetter`` maps allocate nothing per row.
    """
    return [list(map(itemgetter(i), rows)) for i in range(width)]


#: A planned batch: distinct intervals, then per-pair X and Y rows.
_Plan = tuple[list[NonatomicEvent], np.ndarray, np.ndarray]


def _by_identity(objs: Sequence[_T]) -> tuple[list[_T], np.ndarray]:
    """The distinct objects of ``objs`` by identity, in first occurrence
    order, and each element's index into them; no per-element hashing
    of the objects themselves.

    Small inputs take two dict passes over the ``id()``s; from
    :data:`_NUMPY_MIN` elements on, one NumPy ``unique`` is cheaper per
    element than a dict and its fixed cost no longer shows.
    """
    n = len(objs)
    if n < _NUMPY_MIN:
        first = dict(zip(map(id, objs), objs, strict=True))
        rank = {key: r for r, key in enumerate(first)}
        return list(first.values()), np.fromiter(
            map(rank.__getitem__, map(id, objs)), np.intp, count=n
        )
    _ids, first_at, inverse = np.unique(
        np.fromiter(map(id, objs), np.intp, count=n),
        return_index=True, return_inverse=True,
    )
    order = np.argsort(first_at)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order), dtype=np.intp)
    return [objs[i] for i in first_at[order].tolist()], rank[inverse]


def _plan_pairs(
    xs_side: Sequence[NonatomicEvent], ys_side: Sequence[NonatomicEvent]
) -> _Plan:
    """The planning pass of every batch surface.

    Maps Q ordered pairs, given as their X side and Y side, to the
    distinct intervals they read — one per component id set, in first
    occurrence order — and the length-Q ``xs``/``ys`` row-index arrays
    into that list.  Only the distinct interval objects are looked up
    by id set.
    """
    objs, obj_of = _by_identity((*xs_side, *ys_side))
    row_of_ids: dict[frozenset[EventId], int] = {}
    intervals: list[NonatomicEvent] = []
    obj_rows = np.empty(len(objs), dtype=np.intp)
    for j, z in enumerate(objs):
        row = obj_rows[j] = row_of_ids.setdefault(z.ids, len(intervals))
        if row == len(intervals):
            intervals.append(z)
    rows = obj_rows[obj_of]
    n = len(xs_side)
    return intervals, rows[:n], rows[n:]


def _compact(
    intervals: list[NonatomicEvent], xs: np.ndarray, ys: np.ndarray
) -> _Plan:
    """The plan of a subset of a plan's pairs: only the intervals the
    ``xs``/``ys`` rows still read, renumbered."""
    used = np.unique(np.concatenate((xs, ys)))
    if len(used) == len(intervals):
        return intervals, xs, ys
    local = np.empty(len(intervals), dtype=np.intp)
    local[used] = np.arange(len(used), dtype=np.intp)
    return [intervals[r] for r in used.tolist()], local[xs], local[ys]


def _range_overlaps(
    intervals: Sequence[NonatomicEvent], num_nodes: int
) -> np.ndarray:
    """``(k, k)`` mask: may ``intervals[a]`` and ``intervals[b]`` share
    an event?

    False is a proof of disjointness: the two intervals' per-node
    ``[first, last]`` ranges overlap on no node they share.  True only
    says the ranges overlap somewhere — the events may still interleave
    without coinciding, which the exact id-set test settles.
    """
    first, hi = extrema_matrices(*flatten_extrema(intervals), num_nodes)
    # an absent node (0) must overlap nothing: its hi of 0 is below
    # every real index, and its lo is lifted above every one
    lo = np.where(first == 0, np.iinfo(np.int64).max, first)
    return (
        (lo[:, None, :] <= hi[None, :, :]) & (lo[None, :, :] <= hi[:, None, :])
    ).any(axis=2)


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
    caches=("_verdicts", "_slots"),
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
    distinct intervals — runs the kernel once, packs each verdict row
    into an integer code, and stores one shared tuple per *distinct*
    row for every pair that has it, so a batch builds as many tuples as
    it has distinct rows rather than one per pair.  :meth:`rows` is the
    batch surfaces' bulk read.

    Each distinct interval (component id set) gets a small integer
    slot, and a pair is keyed by the integer ``slot(X) << 32 | slot(Y)``:
    keys of a whole batch come from one NumPy expression over its
    :func:`_plan_pairs` rows, and no per-pair key object is built.
    Entries are keyed to the execution
    :attr:`~repro.events.poset.Execution.version`; growth drops every
    verdict, so stale future-side subtests can never be served.

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
                 "_slots", "evals", "cut_pair_evals", "hits", "fills")

    def __init__(
        self,
        context: "Execution | AnalysisContext",
        proxy_definition: ProxyDefinition = ProxyDefinition.PER_NODE,
    ) -> None:
        self.context = AnalysisContext.of(context)
        self.proxy_definition = proxy_definition
        self._version = self.context.execution.version
        self._verdicts: dict[int, VerdictRow] = {}
        self._slots: dict[frozenset[EventId], int] = {}
        self.evals = 0
        self.cut_pair_evals = 0
        self.hits = 0
        self.fills = 0

    def invalidate(self) -> None:
        """Drop every verdict row; re-arm on current version."""
        self._verdicts.clear()
        self._slots.clear()
        self._version = self.context.execution.version

    def _fresh(self) -> None:
        if self.context.execution.version != self._version:
            self.invalidate()

    @property
    def pairs_cached(self) -> int:
        """Ordered pairs with a memoized verdict row."""
        self._fresh()
        return len(self._verdicts)

    def _keys(self, plan: _Plan) -> np.ndarray:
        """The pair keys of a plan's pairs (new intervals get slots)."""
        self._fresh()
        intervals, xs, ys = plan
        slots = self._slots
        slot = np.fromiter(
            (slots.setdefault(z.ids, len(slots)) for z in intervals),
            np.int64, count=len(intervals),
        )
        return (slot[xs] << 32) | slot[ys]

    def fill_pairs(
        self,
        pairs: Sequence[tuple[NonatomicEvent, NonatomicEvent]],
        plan: "_Plan | None" = None,
    ) -> None:
        """Batch-fill the verdict rows of every not-yet-cached pair.

        One pass end to end: missing pairs are deduplicated, their
        distinct intervals' ``(k, 12, P)`` operand tensor is filled by
        **one** batched :meth:`~repro.core.context.CutCache.family_operands`
        call, the tensor is pushed through
        :func:`~repro.core.family.verdict_matrix` once, and the
        ``(pairs, 24)`` result's distinct rows become one tuple each,
        stored for every pair with that row.  Already-cached pairs are
        skipped without touching the counters.  ``plan`` is
        ``_plan_pairs`` of ``pairs``, when the caller already has it.
        """
        self._fresh()
        if not len(pairs):
            return
        if plan is None:
            plan = _plan_pairs(*_columns(pairs, 2))
        keys = self._keys(plan).tolist()
        todo = dict(zip(keys, range(len(keys)), strict=True))  # distinct pairs
        verdicts = self._verdicts
        for key in verdicts.keys() & todo.keys():  # already cached
            del todo[key]
        if not todo:
            return
        intervals, xs, ys = plan
        if len(todo) < len(keys):  # duplicates or cached pairs left out
            at = np.fromiter(todo.values(), np.intp, count=len(todo))
            intervals, xs, ys = _compact(intervals, xs[at], ys[at])
        ops = self.context.cut_cache.family_operands(
            intervals, self.proxy_definition
        )
        codes = (verdict_matrix(ops, xs, ys) @ _ROW_WEIGHTS).tolist()
        rows = {code: _row_of_code(code) for code in set(codes)}
        verdicts.update(zip(todo, map(rows.__getitem__, codes), strict=True))
        self.fills += 1
        self.evals += N_SUBTESTS * len(todo)
        self.cut_pair_evals += _N_CUT_PAIR * len(todo)

    def rows(
        self,
        pairs: Sequence[tuple[NonatomicEvent, NonatomicEvent]],
        plan: "_Plan | None" = None,
    ) -> list[VerdictRow]:
        """The verdict rows of ``pairs``, in input order, in one bulk read.

        Missing pairs are filled first by one :meth:`fill_pairs`; every
        pair read counts one :attr:`hits`, as a :meth:`verdict_row` read
        of a filled pair does.  Pairs sharing a row share its tuple.
        ``plan`` is ``_plan_pairs`` of ``pairs``, when the caller
        already has it.
        """
        self._fresh()
        if not len(pairs):
            return []
        if plan is None:
            plan = _plan_pairs(*_columns(pairs, 2))
        keys = self._keys(plan).tolist()
        out = list(map(self._verdicts.get, keys))
        if None in out:
            self.fill_pairs(pairs, plan)
            out = list(map(self._verdicts.__getitem__, keys))
        self.hits += len(out)
        return out

    def verdict_row(
        self, x: NonatomicEvent, y: NonatomicEvent
    ) -> VerdictRow:
        """The 24-subtest verdict row of ``(x, y)``, filling on demand.

        A read served from the memo counts one :attr:`hits`; a missing
        pair pays a single-pair :meth:`fill_pairs` (batch callers should
        pre-fill, making every subsequent read a hit).
        """
        self._fresh()
        sx = self._slots.get(x.ids)
        sy = self._slots.get(y.ids)
        row = None
        if sx is not None and sy is not None:
            row = self._verdicts.get(sx << 32 | sy)
        if row is None:
            self.fill_pairs(((x, y),))
            return self._verdicts[self._slots[x.ids] << 32 | self._slots[y.ids]]
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
            names = f" (X={x.name!r}, Y={y.name!r})" if x.name or y.name else ""
            raise ValueError(
                f"X and Y share atomic events{names}; the evaluation "
                "conditions are exact only for disjoint intervals (pass "
                "check_disjoint=False to evaluate anyway)"
            )

    def _check_pairs(
        self,
        xs_side: Sequence[NonatomicEvent],
        ys_side: Sequence[NonatomicEvent],
        plan: _Plan,
    ) -> None:
        """:meth:`_check_pair` over a planned batch, in input order.

        The interval-level range test (:func:`_range_overlaps`) proves
        most pairs disjoint at once; only the pairs it cannot clear pay
        the exact id-set test, so the first truly overlapping pair is
        the one reported.  It runs when it is cheaper than exact tests
        of every pair (see :data:`_RANGE_TEST_IDS_PER_INTERVAL`).
        """
        if not self.check_disjoint:
            return
        intervals, xs, ys = plan
        k, num_nodes = len(intervals), self.execution.num_nodes
        sizes = np.fromiter(map(len, intervals), np.intp, count=k)
        probes = int(np.minimum(sizes[xs], sizes[ys]).sum())
        if (probes > _RANGE_TEST_IDS_PER_INTERVAL * k
                and k * k * num_nodes <= _RANGE_TEST_MAX):
            suspects = np.flatnonzero(
                _range_overlaps(intervals, num_nodes)[xs, ys]
            ).tolist()
        else:
            suspects = range(len(xs))
        for i in suspects:
            self._check_pair(xs_side[i], ys_side[i])

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

        One planning pass (C-level ``map``s over the queries, Python
        only per distinct interval and spec object) gives every distinct
        interval one row of a ``(k, 12, P)`` family operand tensor per
        proxy definition it is read under — per-node for base relations,
        the analyzer's :attr:`proxy_definition` for family specs — and
        groups the queries by subtest key
        (:func:`~repro.core.relations.subtest_key`).
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
          :meth:`holds`: an interval-level range test clears most pairs
          at once, and the first truly overlapping query in input order
          raises.
        """
        qs = list(queries)
        if not qs:
            return []
        specs, xs_side, ys_side = _columns(qs, 3)
        plan = _plan_pairs(xs_side, ys_side)
        self._check_pairs(xs_side, ys_side, plan)
        intervals, xs, ys = plan
        # each distinct spec object is parsed and hashed once; its
        # queries join the (proxy definition, subtest key) group
        spec_objs, spec_of = _by_identity(specs)
        groups: dict[tuple[ProxyDefinition, SubtestKey], int] = {}
        group_of_spec = np.empty(len(spec_objs), dtype=np.intp)
        for j, spec in enumerate(spec_objs):
            parsed = parse_spec(spec) if isinstance(spec, str) else spec
            pd = (
                ProxyDefinition.PER_NODE
                if isinstance(parsed, Relation)
                else self.proxy_definition
            )
            gkey = (pd, subtest_key(parsed))
            group_of_spec[j] = groups.setdefault(gkey, len(groups))
        group = group_of_spec[spec_of]
        out = np.empty(len(qs), dtype=np.bool_)
        cache = self.context.cut_cache
        for pd in dict.fromkeys(pd for pd, _key in groups):
            mine = {key: g for (p, key), g in groups.items() if p is pd}
            # the operand tensor covers just the intervals pd's queries
            # read, so a Definition-3 proxy is never built for an
            # interval that only base relations read
            if len(mine) == len(groups):
                sel = np.arange(len(qs), dtype=np.intp)
                pd_intervals, pd_xs, pd_ys = plan
            else:
                sel = np.flatnonzero(np.isin(group, list(mine.values())))
                pd_intervals, pd_xs, pd_ys = _compact(
                    intervals, xs[sel], ys[sel]
                )
            ops = cache.family_operands(pd_intervals, pd)
            pd_group = group[sel]
            for key, g in mine.items():
                at = np.flatnonzero(pd_group == g)
                out[sel[at]] = subtest_verdicts(ops, key, pd_xs[at], pd_ys[at])
        return out.tolist()

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
        return _base_template(vc.verdict_row(x, y)).copy()

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
        return _family_template(vc.verdict_row(x, y)).copy()

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
    ) -> "list[VerdictRow] | None":
        """Validate ``pairs`` (one planning pass, one range check) and,
        on cached configurations, bulk-read their verdict rows (filling
        the missing ones in one kernel pass); ``None`` on bypass."""
        vc = self._verdict_cache
        if not pairs or (vc is None and not self.check_disjoint):
            return None if vc is None else []
        xs_side, ys_side = _columns(pairs, 2)
        plan = _plan_pairs(xs_side, ys_side)
        self._check_pairs(xs_side, ys_side, plan)
        return None if vc is None else vc.rows(pairs, plan)

    def all_relations_batch(
        self, pairs: Iterable[tuple[NonatomicEvent, NonatomicEvent]]
    ) -> list[dict[RelationSpec, bool]]:
        """:meth:`all_relations` for many ordered pairs at once.

        On the cached configuration every missing pair is answered by
        **one** batched operand gather + one
        :func:`~repro.core.family.verdict_matrix` pass (all 24 subtests
        × all pairs); each pair then gets its own copy of its verdict
        row's template dict.  Results align with the input order and
        are identical to per-pair :meth:`all_relations`.  Bypass
        configurations fall back to the scalar loop.
        """
        seq = list(pairs)
        rows = self._fill_family(seq)
        if rows is None:
            return [
                {spec: self._engine_holds(spec, x, y) for spec in FAMILY32}
                for x, y in seq
            ]
        return list(map(dict.copy, _per_row(_family_template, rows)))

    def base_relations_batch(
        self, pairs: Iterable[tuple[NonatomicEvent, NonatomicEvent]]
    ) -> list[dict[Relation, bool]]:
        """:meth:`base_relations` for many ordered pairs at once
        (one kernel pass on the cached configuration)."""
        seq = list(pairs)
        rows = self._fill_family(seq)
        if rows is None:
            return [
                {r: self._engine_holds(r, x, y) for r in BASE_RELATIONS}
                for x, y in seq
            ]
        return list(map(dict.copy, _per_row(_base_template, rows)))

    def strongest_batch(
        self, pairs: Iterable[tuple[NonatomicEvent, NonatomicEvent]]
    ) -> list[tuple[RelationSpec, ...]]:
        """:meth:`strongest` for many ordered pairs at once
        (one kernel pass + memoized hierarchy walks on the cached
        configuration)."""
        seq = list(pairs)
        rows = self._fill_family(seq)
        if rows is None:
            return [self.strongest(x, y) for x, y in seq]
        return _per_row(_strongest_of_row, rows)

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
