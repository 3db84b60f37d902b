"""Tests for the vectorised all-pairs relation matrices."""

import pytest
from hypothesis import given, settings

from repro.core.linear import LinearEvaluator
from repro.core.pairwise import IntervalSetMatrices, relation_matrix
from repro.core.relations import BASE_RELATIONS, FAMILY32, Relation
from repro.nonatomic.event import NonatomicEvent

from .strategies import execution_with_intervals


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IntervalSetMatrices([])

    def test_cross_execution_rejected(self, message_exec, chain_exec):
        a = NonatomicEvent(message_exec, [(0, 1)])
        b = NonatomicEvent(chain_exec, [(0, 1)])
        with pytest.raises(ValueError, match="different executions"):
            IntervalSetMatrices([a, b])

    def test_shapes(self, message_exec):
        ivs = [
            NonatomicEvent(message_exec, [(0, 1)]),
            NonatomicEvent(message_exec, [(1, 2), (0, 3)]),
        ]
        mats = IntervalSetMatrices(ivs)
        assert len(mats) == 2
        assert mats.relation_matrix(Relation.R1).shape == (2, 2)


class TestAgainstScalarEngine:
    @settings(max_examples=60, deadline=None)
    @given(data=execution_with_intervals(k=4))
    def test_base_matrix_matches_loop(self, data):
        ex, ivs = data
        mats = IntervalSetMatrices(ivs)
        lin = LinearEvaluator(ex)
        for rel in BASE_RELATIONS:
            m = mats.relation_matrix(rel, mask_diagonal=False)
            for i, x in enumerate(ivs):
                for j, y in enumerate(ivs):
                    if i == j:
                        continue
                    assert bool(m[i, j]) == lin.evaluate(rel, x, y), (
                        rel, i, j,
                    )

    @settings(max_examples=25, deadline=None)
    @given(data=execution_with_intervals(k=3))
    def test_spec_matrix_matches_loop(self, data):
        ex, ivs = data
        mats = IntervalSetMatrices(ivs)
        lin = LinearEvaluator(ex)
        for spec in FAMILY32[::5]:  # a representative slice
            m = mats.spec_matrix(spec, mask_diagonal=False)
            for i, x in enumerate(ivs):
                for j, y in enumerate(ivs):
                    if i == j:
                        continue
                    assert bool(m[i, j]) == lin.evaluate_spec(spec, x, y), (
                        spec, i, j,
                    )

    def test_diagonal_masked_by_default(self, message_exec):
        ivs = [
            NonatomicEvent(message_exec, [(0, 1)]),
            NonatomicEvent(message_exec, [(1, 2)]),
        ]
        m = relation_matrix(ivs, Relation.R4)
        assert not m[0, 0] and not m[1, 1]

    def test_known_ordering(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1)])
        y = NonatomicEvent(message_exec, [(1, 2)])
        m = relation_matrix([x, y], Relation.R1)
        assert bool(m[0, 1]) is True
        assert bool(m[1, 0]) is False

    def test_asymmetric_matrix(self, medium_exec, rng):
        from repro.nonatomic.selection import random_interval

        ivs = [random_interval(medium_exec, rng) for _ in range(6)]
        m = relation_matrix(ivs, Relation.R1, mask_diagonal=False)
        # R1 is asymmetric off the diagonal for disjoint pairs; since
        # intervals may overlap here, just check the matrix is boolean
        # and consistent with the scalar engine on disjoint pairs.
        lin = LinearEvaluator(medium_exec)
        for i, x in enumerate(ivs):
            for j, y in enumerate(ivs):
                if i != j and x.is_disjoint(y):
                    assert bool(m[i, j]) == lin.evaluate(Relation.R1, x, y)
