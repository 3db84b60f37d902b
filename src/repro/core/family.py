"""The batched family-query kernel: all 24 ≪-subtests, all pairs at once.

Theorem 19/20 reduce every one of the 40 evaluable specs (8 base
relations + the 32-member proxy family) to one of 24 distinct vector
subtests per ordered pair (:data:`~repro.core.relations.SUBTEST_KEYS`).
This module answers them over stacked operands, with no per-pair loop:

* :func:`operand_tensor` reshapes one batched
  :class:`~repro.backends.stats.CutStats` fill over the interleaved
  ``(L, U)`` proxies of k intervals into a contiguous ``(k, 12, P)``
  operand tensor — the twelve rows (six stats × two proxies) any subtest
  key can select;
* :func:`verdict_matrix` answers **all 24 subtest columns for Q ordered
  pairs**, one slice of :data:`PAIR_SLICE` pairs at a time: per slice,
  three fancy-indexed gathers and three comparison + reduction passes,
  producing the ``(Q, 24)`` boolean verdict matrix that
  :class:`~repro.core.evaluator.SharedVerdictCache` stores, one shared
  tuple per distinct row;
* :func:`subtest_verdicts` (one key, Q pairs: the batch planner's
  gather) and :func:`subtest_matrix` (one key, all k² pairs:
  :mod:`repro.core.pairwise`) read the same tensor through a subtest
  key and the formulas of :func:`compare_rows`, so no surface keeps a
  formula table of its own — base relations included, which
  :func:`~repro.core.relations.subtest_key` maps onto per-node proxy
  operand rows.

Layering: this module sits beside :mod:`repro.core.relations` and below
:mod:`repro.core.context` — it sees only stacked arrays, never
executions or caches.
"""

from __future__ import annotations

# repro: hot, dtype-strict

import numpy as np

from ..backends.stats import CLOCK_DTYPE, CutStats
from .relations import (
    SUBTEST_COLUMNS,
    SUBTEST_KEYS,
    SubtestKey,
    SubtestKind,
)

__all__ = [
    "N_OPERANDS",
    "N_SUBTESTS",
    "PAIR_SLICE",
    "OPERAND_ORDER",
    "OPERAND_INDEX",
    "operand_tensor",
    "verdict_matrix",
    "subtest_verdicts",
    "subtest_matrix",
    "compare_rows",
]

#: Stat row names in :class:`~repro.backends.stats.CutStats` order.
_OPERAND_STATS: tuple[str, ...] = ("c1", "c2", "c3", "c4", "first", "last")

#: The twelve operand rows of one interval — ``(stat, proxy_tag)`` in a
#: fixed layout (stat-major, L before U) matching :func:`operand_tensor`.
OPERAND_ORDER: tuple[tuple[str, str], ...] = tuple(
    (stat, tag) for stat in _OPERAND_STATS for tag in ("L", "U")
)

#: ``(stat, tag)`` → row index into the ``(k, 12, P)`` operand tensor.
OPERAND_INDEX: dict[tuple[str, str], int] = {
    op: i for i, op in enumerate(OPERAND_ORDER)
}

N_OPERANDS: int = len(OPERAND_ORDER)
N_SUBTESTS: int = len(SUBTEST_KEYS)

#: Pairs per slice of :func:`verdict_matrix`.  Each per-slice gather is
#: at most ``(PAIR_SLICE, 12, P)`` ``CLOCK_DTYPE`` words (1.5 MB at
#: P = 16), so a batch's temporaries stay that size however many pairs
#: it holds.
PAIR_SLICE: int = 2048


def compare_rows(
    kind: SubtestKind, y: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """The three subtest formulas, reduced over the trailing (node) axis.

    ``y``/``x`` are broadcast-compatible stacks whose last axis is
    ``|P|``; the result drops that axis.  These are the sound
    full-``|P|``-scan forms shared by every vectorized surface:

    * ``FORALL_PAST``:   ``all(y ≥ x)`` — ``x = lastX̂`` is 0 off
      ``N_X̂``, neutral because cut timestamps are nonnegative;
    * ``EXISTS_CUT``:    ``any(y ≥ x)`` — the genuine cut-pair ``≪̸``
      tests (future-cut components are ≥ 1, so a hit implies ``y ≥ 1``);
    * ``FORALL_FUTURE``: ``all((y == 0) | (y ≥ x))`` — ``y = firstŶ``
      with 0 encoding "node not in ``N_Ŷ``", skipped.
    """
    if kind is SubtestKind.EXISTS_CUT:
        return np.any(y >= x, axis=-1)
    if kind is SubtestKind.FORALL_PAST:
        return np.all(y >= x, axis=-1)
    if kind is SubtestKind.FORALL_FUTURE:
        return np.all((y == 0) | (y >= x), axis=-1)
    raise ValueError(f"unknown subtest kind: {kind!r}")  # pragma: no cover


def _column_groups() -> tuple[
    tuple[SubtestKind, np.ndarray, np.ndarray, np.ndarray], ...
]:
    """Per-kind column plans: (kind, columns, y operand rows, x rows).

    Grouping the 24 columns by kind lets :func:`verdict_matrix` answer
    each group with one gather pair + one comparison/reduction pass.
    """
    groups = []
    for kind in SubtestKind:
        sel = [
            (SUBTEST_COLUMNS[key], key)
            for key in SUBTEST_KEYS
            if key[0] is kind
        ]
        cols = np.asarray([c for c, _ in sel], dtype=np.intp)
        y_ops = np.asarray(
            [OPERAND_INDEX[key[1]] for _, key in sel], dtype=np.intp
        )
        x_ops = np.asarray(
            [OPERAND_INDEX[key[2]] for _, key in sel], dtype=np.intp
        )
        for arr in (cols, y_ops, x_ops):
            arr.setflags(write=False)
        groups.append((kind, cols, y_ops, x_ops))
    return tuple(groups)


_GROUPS: tuple[
    tuple[SubtestKind, np.ndarray, np.ndarray, np.ndarray], ...
] = _column_groups()


def operand_tensor(stats: CutStats) -> np.ndarray:
    """Reshape proxy stats into the ``(k, 12, P)`` operand tensor.

    ``stats`` must stack the **interleaved proxies** of k intervals —
    rows ``[L_0, U_0, L_1, U_1, …]`` from one batched cut fill.  Row
    ``out[i, OPERAND_INDEX[stat, tag]]`` is the ``stat`` vector of
    interval ``i``'s ``tag`` proxy; the tensor is contiguous so the
    fancy gathers of :func:`verdict_matrix` touch one block per group.
    """
    two_k, num_nodes = stats.c1.shape
    if two_k % 2:
        raise ValueError("stats must stack interleaved (L, U) proxy rows")
    k = two_k // 2
    out = np.empty((k, N_OPERANDS, num_nodes), dtype=CLOCK_DTYPE)
    for stat_i, stat in enumerate(_OPERAND_STATS):
        mat = getattr(stats, stat)
        out[:, 2 * stat_i] = mat[0::2]
        out[:, 2 * stat_i + 1] = mat[1::2]
    out.setflags(write=False)
    return out


def verdict_matrix(
    ops: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """All 24 subtest verdicts for Q ordered pairs in one pass.

    ``ops`` is the ``(k, 12, P)`` operand tensor of the distinct
    intervals; ``xs``/``ys`` are length-Q row indices selecting each
    pair's X and Y interval.  Returns the ``(Q, 24)`` boolean verdict
    matrix whose column ``j`` answers
    ``SUBTEST_KEYS[j]`` (:data:`~repro.core.relations.SUBTEST_COLUMNS`).

    Cost: per slice of :data:`PAIR_SLICE` pairs, three
    ``(slice, group, P)`` gather pairs + three comparison/reduction
    passes — zero per-pair Python dispatch, ``O(Q · P)`` total work for
    the whole 40-spec query surface, and temporaries bounded by the
    slice rather than by Q.
    """
    xs = np.asarray(xs, dtype=np.intp)
    ys = np.asarray(ys, dtype=np.intp)
    out = np.empty((xs.shape[0], N_SUBTESTS), dtype=np.bool_)
    for lo in range(0, xs.shape[0], PAIR_SLICE):
        sx = xs[lo:lo + PAIR_SLICE, None]
        sy = ys[lo:lo + PAIR_SLICE, None]
        part = out[lo:lo + PAIR_SLICE]
        for kind, cols, y_ops, x_ops in _GROUPS:
            part[:, cols] = compare_rows(
                kind, ops[sy, y_ops[None, :]], ops[sx, x_ops[None, :]]
            )
    return out


def subtest_verdicts(
    ops: np.ndarray, key: SubtestKey, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """One subtest key's verdicts for Q ordered pairs.

    The single-column form of :func:`verdict_matrix`: ``xs``/``ys`` are
    length-Q intp row indices into the ``(k, 12, P)`` operand tensor
    ``ops``; one gather per side selects the key's operand rows and one
    comparison/reduction pass answers every pair.
    """
    kind, yop, xop = key
    return compare_rows(
        kind, ops[ys, OPERAND_INDEX[yop]], ops[xs, OPERAND_INDEX[xop]]
    )


def subtest_matrix(ops: np.ndarray, key: SubtestKey) -> np.ndarray:
    """All-pairs ``(k, k)`` matrix for one subtest key.

    ``M[i, j]`` answers the subtest with ``intervals[i]`` as X and
    ``intervals[j]`` as Y — the broadcast form of :func:`verdict_matrix`
    behind :class:`~repro.core.pairwise.IntervalSetMatrices`.
    """
    kind, yop, xop = key
    y = ops[:, OPERAND_INDEX[yop]][None, :, :]
    x = ops[:, OPERAND_INDEX[xop]][:, None, :]
    return compare_rows(kind, y, x)
