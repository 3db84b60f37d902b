"""Vectorised all-pairs relation evaluation.

Applications like the mutual-exclusion verifier (pairwise occupancy
checks) and predicate detectors evaluate one relation over *every*
ordered pair from a set of k intervals.  Doing that through the scalar
engine costs k² Python-level calls; this module stacks the intervals'
``(k, 12, P)`` family operand tensor (the proxy cut timestamps and
extremal-index vectors of :func:`~repro.core.family.operand_tensor`)
once and answers each relation for all k² pairs with one NumPy
broadcast over a ``(k, k, P)`` comparison tensor.

Every matrix is read through a subtest key
(:func:`~repro.core.relations.subtest_key`): a family spec selects its
proxies' operand rows, and a base relation the per-node proxy rows that
coincide with its full-interval cuts (e.g. ``C2(Y) = C2(U_Y)``), so the
formulas are the sound full-``|P|``-scan forms of
:func:`~repro.core.family.compare_rows` shared with the batched kernel.

Complexity: ``O(k² · P)`` total — the same as k² linear-engine calls
at full-|P| scan — but executed inside NumPy, which on realistic sizes
is 1–2 orders of magnitude faster than the per-pair Python loop (see
``benchmarks/bench_pairwise_matrix.py``).
"""

from __future__ import annotations

# repro: hot, dtype-strict

from collections.abc import Sequence

import numpy as np

from ..nonatomic.event import NonatomicEvent
from ..nonatomic.proxies import ProxyDefinition
from .context import AnalysisContext, CutCache
from .family import subtest_matrix
from .relations import Relation, RelationSpec, SubtestKey, subtest_key

__all__ = ["IntervalSetMatrices", "relation_matrix"]


class IntervalSetMatrices:
    """The family operand tensors of a set of k intervals.

    Rows are aligned with the input order.  Each proxy definition's
    ``(k, 12, P)`` tensor is filled once, on first use, by one batched
    :meth:`~repro.core.context.CutCache.family_operands` call; every
    matrix afterwards is pure NumPy.

    ``cache`` is the :class:`~repro.core.context.CutCache` that fills
    the tensors; it defaults to the shared context's
    (:meth:`AnalysisContext.of <repro.core.context.AnalysisContext.of>`).
    """

    __slots__ = ("intervals", "cache", "_operands")

    def __init__(
        self, intervals: Sequence[NonatomicEvent], cache: CutCache | None = None
    ) -> None:
        if not intervals:
            raise ValueError("need at least one interval")
        ex = intervals[0].execution
        for iv in intervals:
            if iv.execution is not ex:
                raise ValueError("intervals belong to different executions")
        self.intervals = tuple(intervals)
        self.cache = cache if cache is not None else AnalysisContext.of(ex).cut_cache
        self._operands: dict[ProxyDefinition, np.ndarray] = {}

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
        """
        return self._matrix(
            ProxyDefinition.PER_NODE, subtest_key(relation), mask_diagonal
        )

    def spec_matrix(
        self,
        spec: RelationSpec,
        proxy_definition: ProxyDefinition = ProxyDefinition.PER_NODE,
        mask_diagonal: bool = True,
    ) -> np.ndarray:
        """All-pairs matrix for a 32-family member (on the proxies)."""
        return self._matrix(proxy_definition, subtest_key(spec), mask_diagonal)

    def _matrix(
        self, proxy_definition: ProxyDefinition, key: SubtestKey, mask_diagonal: bool
    ) -> np.ndarray:
        ops = self._operands.get(proxy_definition)
        if ops is None:
            ops = self._operands[proxy_definition] = self.cache.family_operands(
                self.intervals, proxy_definition
            )
        out = subtest_matrix(ops, key)
        if mask_diagonal:
            np.fill_diagonal(out, False)
        return out


def relation_matrix(
    intervals: Sequence[NonatomicEvent],
    relation: Relation,
    mask_diagonal: bool = True,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`IntervalSetMatrices`."""
    return IntervalSetMatrices(intervals).relation_matrix(
        relation, mask_diagonal=mask_diagonal
    )
