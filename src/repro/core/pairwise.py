"""Vectorised all-pairs relation evaluation.

Applications like the mutual-exclusion verifier (pairwise occupancy
checks) and predicate detectors evaluate one relation over *every*
ordered pair from a set of k intervals.  Doing that through the scalar
engine costs k² Python-level calls; this module stacks the intervals'
cut timestamps and extremal-index vectors into ``(k, P)`` matrices once
and answers each relation for all k² pairs with a handful of NumPy
broadcasting operations over a ``(k, k, P)`` comparison tensor.

The vectorised conditions are the *full-|P|-scan* forms of the linear
evaluation (sound for every relation, no anchoring subtleties), with
out-of-node-set components encoded so they are neutral:

* universal rows compare against a ``lastX``/``firstY`` vector that is
  0 outside the node set (0 never fails ``T ≥ 0``, and a first-index 0
  is treated as satisfied);
* existential rows exploit that future-cut components are ≥ 1, so a
  past component ≥ future component already implies it is ≥ 1.

Complexity: ``O(k² · P)`` total — the same as k² linear-engine calls
at full-|P| scan — but executed inside NumPy, which on realistic sizes
is 1–2 orders of magnitude faster than the per-pair Python loop (see
``benchmarks/bench_pairwise_matrix.py``).
"""

from __future__ import annotations

# repro: hot, dtype-strict

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..nonatomic.event import NonatomicEvent
from ..nonatomic.proxies import Proxy, ProxyDefinition, proxy_of
from .cuts import cut_stats
from .family import RELATION_ROWS, compare_rows, operand_tensor, subtest_matrix
from .relations import Relation, RelationSpec, subtest_key

if TYPE_CHECKING:
    from .context import CutCache

#: Synonym collapse for matrix memoization: R1 ≡ R1' and R4 ≡ R4' share
#: one kernel pass (the broadcasting forms are literally identical).
_CANON_RELATION = {
    Relation.R1P: Relation.R1,
    Relation.R4P: Relation.R4,
}

__all__ = ["IntervalSetMatrices", "relation_matrix"]


class IntervalSetMatrices:
    """Stacked per-interval vectors for a set of k intervals.

    Rows are aligned with the input order.  Construction is the
    one-time cost (``O(k · |N| · P)`` for the cut folds); every
    :meth:`relation_matrix` call afterwards is pure NumPy.

    With ``cache`` (a :class:`~repro.core.context.CutCache`, e.g. via
    :meth:`AnalysisContext.matrices
    <repro.core.context.AnalysisContext.matrices>`), cut and extremal
    vectors are drawn from — and deposited into — the shared cache, so
    folds already paid by scalar queries (or an earlier stack) are not
    repeated.
    """

    __slots__ = ("intervals", "cache", "c1", "c2", "c3", "c4", "first",
                 "last", "_memo")

    def __init__(
        self, intervals: Sequence[NonatomicEvent], cache: "CutCache | None" = None
    ) -> None:
        if not intervals:
            raise ValueError("need at least one interval")
        ex = intervals[0].execution
        for iv in intervals:
            if iv.execution is not ex:
                raise ValueError("intervals belong to different executions")
        self.intervals = tuple(intervals)
        self.cache = cache
        self._memo: dict[tuple, np.ndarray] = {}
        # One vectorized columnar pass fills all six (k, P) matrices
        # (gather + segmented reduction over the clock tables); with a
        # cache, rows already folded are reused and cold rows deposited.
        if cache is not None:
            stats = cache.stats(self.intervals)
        else:
            stats = cut_stats(ex, self.intervals)
        self.c1 = stats.c1
        self.c2 = stats.c2
        self.c3 = stats.c3
        self.c4 = stats.c4
        # first/last component indices; 0 encodes "node not in N_X"
        self.first = stats.first
        self.last = stats.last

    def __len__(self) -> int:
        return len(self.intervals)

    # ------------------------------------------------------------------
    def relation_matrix(
        self, relation: Relation, mask_diagonal: bool = True
    ) -> np.ndarray:
        """``M[i, j] = relation(intervals[i], intervals[j])``.

        With ``mask_diagonal`` (default) the diagonal is forced False:
        self-pairs violate the disjointness precondition and carry no
        synchronization meaning.

        Results are memoized per (relation, mask) with synonyms
        collapsed (R1/R1', R4/R4' share one matrix): the stacks are
        immutable after construction, so repeat calls are a dict lookup.
        """
        key = (_CANON_RELATION.get(relation, relation), mask_diagonal)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        out = _relation_matrix_from(self, self, relation)
        if mask_diagonal:
            np.fill_diagonal(out, False)
        out.setflags(write=False)
        self._memo[key] = out
        return out

    def spec_matrix(
        self,
        spec: RelationSpec,
        proxy_definition: ProxyDefinition = ProxyDefinition.PER_NODE,
        mask_diagonal: bool = True,
    ) -> np.ndarray:
        """All-pairs matrix for a 32-family member (on the proxies).

        Memoized per (subtest key, proxy definition, mask): specs that
        canonicalise to the same ``≪`` subtest
        (:func:`~repro.core.relations.subtest_key` — synonym pairs such
        as ``R4(U,L)``/``R4'(U,L)``) share one kernel pass and one
        stored matrix, so a 32-spec sweep builds at most 24 matrices.
        """
        key = (subtest_key(spec), proxy_definition, mask_diagonal)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        out = subtest_matrix(self._operands(proxy_definition), subtest_key(spec))
        if mask_diagonal:
            np.fill_diagonal(out, False)
        out.setflags(write=False)
        self._memo[key] = out
        return out

    def _operands(self, proxy_definition: ProxyDefinition) -> np.ndarray:
        """The ``(k, 12, P)`` family operand tensor over this stack's
        intervals, memoized per proxy definition.

        One batched cut fill over the ``2k`` interleaved ``(L, U)``
        proxies supplies every row any subtest key selects, so a full
        32-spec sweep pays one gather however many spec matrices it
        builds.
        """
        key = ("__operands__", proxy_definition)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if self.cache is not None:
            out = self.cache.family_operands(self.intervals, proxy_definition)
        else:
            proxies: list[NonatomicEvent] = []
            for iv in self.intervals:
                proxies.append(proxy_of(iv, Proxy.L, proxy_definition))
                proxies.append(proxy_of(iv, Proxy.U, proxy_definition))
            out = operand_tensor(
                cut_stats(self.intervals[0].execution, proxies)
            )
        self._memo[key] = out
        return out


def _relation_matrix_from(
    xs: "IntervalSetMatrices", ys: "IntervalSetMatrices", relation: Relation
) -> np.ndarray:
    """Core broadcasting kernel: rows index X, columns index Y.

    The comparison row per relation comes from the shared formula table
    (:data:`~repro.core.family.RELATION_ROWS`), so this surface and the
    batched family kernel cannot drift apart.  X-side stacks broadcast as
    ``(k, 1, P)``, Y-side as ``(1, k, P)``.
    """
    kind, y_stat, x_stat = RELATION_ROWS[relation]
    y = getattr(ys, y_stat)[None, :, :]
    x = getattr(xs, x_stat)[:, None, :]
    return compare_rows(kind, y, x)


def relation_matrix(
    intervals: Sequence[NonatomicEvent],
    relation: Relation,
    mask_diagonal: bool = True,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`IntervalSetMatrices`."""
    return IntervalSetMatrices(intervals).relation_matrix(
        relation, mask_diagonal=mask_diagonal
    )
