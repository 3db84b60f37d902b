"""The default causality backend: columnar vector clocks.

:class:`VectorClockBackend` is a thin adapter over the columnar clock
substrate the :class:`~repro.events.poset.Execution` already maintains
(forward table eager, reverse table lazy), so it adds no storage of its
own and inherits the substrate's version discipline for free —
:meth:`Execution.extend` advances the forward table incrementally and
the reverse table rebuilds lazily.

:func:`vector_cut_stats` is the batched Table-2 cut fill over the dense
matrices (four gathers + four segmented reductions); it is the
implementation behind the long-standing
:func:`repro.core.cuts.cut_stats` entry point, which now delegates here.
"""

from __future__ import annotations

# repro: hot, dtype-strict

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..events.event import EventId
from .base import CausalityBackend, register_backend
from .stats import CutStats, _stats_from_extrema, flatten_extrema

if TYPE_CHECKING:
    from ..events.poset import Execution
    from ..nonatomic.event import NonatomicEvent

__all__ = ["VectorClockBackend", "vector_cut_stats"]


def vector_cut_stats(
    execution: "Execution", intervals: Sequence["NonatomicEvent"]
) -> CutStats:
    """All four Table-2 cuts (plus extremal vectors) for a whole
    interval set in one vectorized pass over the columnar clock tables.

    Row ``i`` equals ``cuts_of(intervals[i])``'s vectors — the
    equivalence is property-tested — but the fill is a single
    gather-and-reduce over the ``(|E|, |P|)`` matrices instead of a
    per-interval Python fold, which is what the ``≥5x`` cut-fill
    speedup of ``benchmarks/bench_setup_amortization.py`` measures.
    """
    for iv in intervals:
        if iv.execution is not execution:
            raise ValueError("interval does not belong to this execution")
    fwd = execution.forward_table
    rev = execution.reverse_table
    nodes, first_idx, last_idx, counts = flatten_extrema(intervals)
    return _stats_from_extrema(
        fwd.data, rev.data, fwd.offsets, fwd.lengths,
        nodes, first_idx, last_idx, counts,
    )


@register_backend
class VectorClockBackend(CausalityBackend):
    """Causality queries answered by the columnar clock tables.

    Stateless beyond the execution reference: both tables live on the
    execution (version-disciplined there), so :meth:`invalidate` is a
    no-op and every query reads the current structures directly.
    """

    __slots__ = ()

    name = "vector"

    def invalidate(self) -> None:
        """No-op: the clock tables are owned (and versioned) by the
        execution itself."""

    # ------------------------------------------------------------------
    # pairwise order
    # ------------------------------------------------------------------
    def leq(self, a: EventId, b: EventId) -> bool:
        """``a ≼ b`` via the canonical O(1) clock-component test."""
        return self._execution.leq(a, b)

    # ------------------------------------------------------------------
    # timestamp-row queries
    # ------------------------------------------------------------------
    def forward_rows(self, ids: Sequence[EventId]) -> np.ndarray:
        """Stacked ``T(e)`` rows — one gather from the forward table."""
        table = self._execution.forward_table
        rows = table.data[table.flat_indices(ids)].astype(np.int64)
        rows.setflags(write=False)
        return rows

    def reverse_rows(self, ids: Sequence[EventId]) -> np.ndarray:
        """Stacked ``T^R(e)`` rows — one gather from the reverse table
        (first use triggers the execution's lazy reverse pass)."""
        table = self._execution.reverse_table
        rows = table.data[table.flat_indices(ids)].astype(np.int64)
        rows.setflags(write=False)
        return rows

    # ------------------------------------------------------------------
    # batched cut fill
    # ------------------------------------------------------------------
    def cut_stats(self, intervals: Sequence["NonatomicEvent"]) -> CutStats:
        """Delegate to the columnar gather-and-reduce fill."""
        return vector_cut_stats(self._execution, intervals)
