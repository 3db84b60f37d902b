"""Columnar kernels and the batch planner vs the reference engines.

Property tests for the columnar substrate: the one-pass cut fill
(:func:`repro.core.cuts.cut_stats`) must agree with the per-interval
folds, and :meth:`~repro.core.evaluator.SynchronizationAnalyzer.batch_holds`
(grouped by subtest key, one fancy-indexed gather per group from one
family operand tensor) must agree with the definition-level
:class:`~repro.core.naive.NaiveEvaluator` on random executions — over
all 8 base relations and all 32 family members.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings

from repro.core.cuts import CutStats, batch_quadruples, cut_stats, cuts_of
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.relations import BASE_RELATIONS, FAMILY32

from .strategies import execution_with_intervals, execution_with_pair

ALL_SPECS = list(BASE_RELATIONS) + list(FAMILY32)


def _assert_stats_match_folds(ex, intervals, stats: CutStats) -> None:
    num_nodes = ex.num_nodes
    for i, iv in enumerate(intervals):
        quad = cuts_of(iv)
        np.testing.assert_array_equal(stats.c1[i], quad.c1.vector)
        np.testing.assert_array_equal(stats.c2[i], quad.c2.vector)
        np.testing.assert_array_equal(stats.c3[i], quad.c3.vector)
        np.testing.assert_array_equal(stats.c4[i], quad.c4.vector)
        first = np.zeros(num_nodes, dtype=np.int64)
        last = np.zeros(num_nodes, dtype=np.int64)
        for node in iv.node_set:
            first[node] = iv.first_at(node)
            last[node] = iv.last_at(node)
        np.testing.assert_array_equal(stats.first[i], first)
        np.testing.assert_array_equal(stats.last[i], last)


class TestColumnarCutFill:
    @given(execution_with_intervals(k=4))
    @settings(max_examples=60, deadline=None)
    def test_cut_stats_matches_per_interval_folds(self, ex_ivs):
        ex, intervals = ex_ivs
        _assert_stats_match_folds(ex, intervals, cut_stats(ex, intervals))

    @given(execution_with_intervals(k=3))
    @settings(max_examples=30, deadline=None)
    def test_batch_quadruples_matches_folds(self, ex_ivs):
        ex, intervals = ex_ivs
        for quad, iv in zip(batch_quadruples(ex, intervals), intervals, strict=True):
            expect = cuts_of(iv)
            for name in ("c1", "c2", "c3", "c4"):
                np.testing.assert_array_equal(
                    getattr(quad, name).vector, getattr(expect, name).vector
                )


class TestGatherKernelVsNaive:
    @given(execution_with_pair())
    @settings(max_examples=25, deadline=None)
    def test_family32_batch_matches_naive(self, ex_pair):
        ex, x, y = ex_pair
        naive = SynchronizationAnalyzer(
            ex, engine="naive", check_disjoint=False
        )
        # both orientations of every spec, through the planner's one
        # operand tensor and per-subtest gathers
        queries = [(spec, a, b) for spec in ALL_SPECS for a, b in ((x, y), (y, x))]
        batched = SynchronizationAnalyzer(ex, check_disjoint=False).batch_holds(
            queries
        )
        expected = [naive.holds(s, a, b) for s, a, b in queries]
        assert batched == expected
