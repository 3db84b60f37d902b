"""The contract every offline batch surface keeps with its scalar form.

``all_relations_batch``, ``base_relations_batch``, ``strongest_batch``
and ``batch_holds`` plan a batch once, clear most pairs' disjointness
with an interval-level range test, and hand out one result object per
distinct verdict row.  None of that may show: every pair gets its own
result, interleaved-but-disjoint intervals pass, the first truly
overlapping pair in input order raises the scalar path's error, and the
batched kernel answers identically whatever the batch size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import evaluator
from repro.core.evaluator import SynchronizationAnalyzer
from repro.core.family import (
    OPERAND_INDEX,
    PAIR_SLICE,
    compare_rows,
    verdict_matrix,
)
from repro.core.relations import (
    BASE_RELATIONS,
    FAMILY32,
    SUBTEST_KEYS,
    parse_spec,
)
from repro.events.builder import TraceBuilder
from repro.nonatomic.event import NonatomicEvent

SPECS = [parse_spec("R1(U,L)"), parse_spec("R2'(L,U)"), BASE_RELATIONS[0]]


def _execution():
    """Two nodes, eight events each, one message per direction."""
    b = TraceBuilder(2)
    for _ in range(3):
        b.internal(0)
        b.internal(1)
    m = b.send(0)
    b.recv(1, m)
    m = b.send(1)
    b.recv(0, m)
    for _ in range(3):
        b.internal(0)
        b.internal(1)
    return b.execute()


@pytest.fixture
def intervals():
    ex = _execution()

    def iv(name, ids):
        return NonatomicEvent(ex, ids, name=name)

    return {
        # odd and even events of node 0: ranges overlap, events do not
        "odd": iv("odd", [(0, 1), (0, 3), (0, 5)]),
        "even": iv("even", [(0, 2), (0, 4), (0, 6)]),
        "early": iv("early", [(0, 7), (1, 1), (1, 2)]),
        "late": iv("late", [(0, 8), (1, 7), (1, 8)]),
        "mid": iv("mid", [(1, 4), (1, 5)]),
        # shares (1, 5) with "mid", and (1, 8) with "late"
        "clash": iv("clash", [(1, 5), (1, 6)]),
        "clash2": iv("clash2", [(1, 8)]),
    }


def _disjoint_pairs(ivs, reps=1):
    """Every ordered pair of five disjoint intervals, ``reps`` times: at
    7 the planner tells its objects apart through NumPy instead of
    dicts."""
    names = ["odd", "even", "early", "late", "mid"]
    return [(ivs[a], ivs[b]) for a in names for b in names if a != b] * reps


@pytest.fixture(params=["exact", "range", "large", "bounded"])
def reps(request, monkeypatch):
    """Batch repeat count, and which disjointness path the batch takes.

    "exact": the batch's few small intervals make exact tests of every
    pair cheaper than the range test, which must not run.  "range" and
    "large" (7 repeats) lower the range test's cost threshold so that it
    runs; "bounded" also lowers its size bound below the batch, so that
    it does not.
    """
    calls = []
    real = evaluator._range_overlaps

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(evaluator, "_range_overlaps", spy)
    if request.param != "exact":
        monkeypatch.setattr(evaluator, "_RANGE_TEST_IDS_PER_INTERVAL", 0)
    if request.param == "bounded":
        monkeypatch.setattr(evaluator, "_RANGE_TEST_MAX", 0)
    yield 7 if request.param == "large" else 1
    assert bool(calls) == (request.param in ("range", "large"))


def _surfaces(an):
    """Each batch surface as ``pairs -> list of per-pair results``."""
    return {
        "all_relations_batch": an.all_relations_batch,
        "base_relations_batch": an.base_relations_batch,
        "strongest_batch": an.strongest_batch,
        "batch_holds": lambda pairs: an.batch_holds(
            [(s, x, y) for s in SPECS for x, y in pairs]
        ),
    }


def _scalar(an, name, pairs):
    """The scalar answer each batch surface must reproduce."""
    if name == "all_relations_batch":
        return [an.all_relations(x, y) for x, y in pairs]
    if name == "base_relations_batch":
        return [an.base_relations(x, y) for x, y in pairs]
    if name == "strongest_batch":
        return [an.strongest(x, y) for x, y in pairs]
    return [an.holds(s, x, y) for s in SPECS for x, y in pairs]


class TestBatchContract:
    @pytest.mark.parametrize(
        "surface",
        ["all_relations_batch", "base_relations_batch", "strongest_batch",
         "batch_holds"],
    )
    def test_matches_scalar_and_accepts_interleaved(
        self, intervals, surface, reps
    ):
        pairs = _disjoint_pairs(intervals, reps)
        # the interleaved pair leads, so the range test sees it first
        assert (pairs[0][0].name, pairs[0][1].name) == ("odd", "even")
        got = _surfaces(SynchronizationAnalyzer(pairs[0][0].execution))[
            surface](pairs)
        scalar = SynchronizationAnalyzer(pairs[0][0].execution, engine="naive")
        assert got == _scalar(scalar, surface, pairs)

    @pytest.mark.parametrize(
        "surface", ["all_relations_batch", "base_relations_batch"]
    )
    def test_each_pair_gets_its_own_dict(self, intervals, surface):
        x, y = intervals["odd"], intervals["even"]
        twin_x = NonatomicEvent(x.execution, x.ids, name="twin")
        # three pairs with one verdict row: shared, if anything is
        pairs = [(x, y), (x, y), (twin_x, y)]
        an = SynchronizationAnalyzer(x.execution)
        first = _surfaces(an)[surface](pairs)
        assert first[0] == first[1] == first[2]
        assert first[0] is not first[1] and first[1] is not first[2]
        expected = dict(first[0])
        key = next(iter(first[0]))
        first[0][key] = not first[0][key]
        first[0]["junk"] = True
        assert first[1] == expected and first[2] == expected
        again = _surfaces(an)[surface](pairs)
        assert again == [expected] * 3
        single = (
            an.all_relations(x, y) if surface == "all_relations_batch"
            else an.base_relations(x, y)
        )
        assert single == expected
        single[key] = not single[key]
        assert _surfaces(an)[surface]([(x, y)]) == [expected]

    def test_repeat_calls_unchanged_after_mutation(self, intervals):
        pairs = _disjoint_pairs(intervals, 3)
        an = SynchronizationAnalyzer(pairs[0][0].execution)
        for name, surface in _surfaces(an).items():
            first = surface(pairs)
            expected = list(first)
            first.clear()
            assert surface(pairs) == expected, name

    @pytest.mark.parametrize(
        "surface",
        ["all_relations_batch", "base_relations_batch", "strongest_batch",
         "batch_holds"],
    )
    def test_overlap_raises_scalar_error(self, intervals, surface):
        mid, clash = intervals["mid"], intervals["clash"]
        an = SynchronizationAnalyzer(mid.execution)
        with pytest.raises(ValueError) as scalar:
            an.all_relations(mid, clash)
        with pytest.raises(ValueError) as batched:
            _surfaces(an)[surface]([(mid, clash)])
        assert str(batched.value) == str(scalar.value)
        assert "share atomic events" in str(scalar.value)

    @pytest.mark.parametrize(
        "surface",
        ["all_relations_batch", "base_relations_batch", "strongest_batch",
         "batch_holds"],
    )
    def test_first_overlapping_pair_in_input_order(
        self, intervals, surface, reps
    ):
        ivs = intervals
        # disjoint pairs first; then two overlapping pairs whose
        # intervals sit in the opposite order in the plan
        pairs = _disjoint_pairs(ivs, reps) + [
            (ivs["clash2"], ivs["late"]),
            (ivs["mid"], ivs["clash"]),
        ]
        an = SynchronizationAnalyzer(ivs["mid"].execution)
        with pytest.raises(ValueError, match="share atomic events") as err:
            _surfaces(an)[surface](pairs)
        assert "X='clash2', Y='late'" in str(err.value)
        assert an.verdict_cache.fills == 0  # raised before any kernel work

    @pytest.mark.parametrize(
        "surface",
        ["all_relations_batch", "base_relations_batch", "strongest_batch",
         "batch_holds"],
    )
    def test_overlap_at_touching_range_ends(self, intervals, surface, reps):
        # "mid" ends and "clash" starts at the shared event (1, 5)
        pairs = _disjoint_pairs(intervals, reps) + [
            (intervals["mid"], intervals["clash"])
        ]
        an = SynchronizationAnalyzer(intervals["mid"].execution)
        with pytest.raises(ValueError, match="X='mid', Y='clash'"):
            _surfaces(an)[surface](pairs)

    @pytest.mark.parametrize(
        "surface",
        ["all_relations_batch", "base_relations_batch", "strongest_batch",
         "batch_holds"],
    )
    def test_unchecked_overlap_still_answers(self, intervals, surface):
        pairs = [(intervals["mid"], intervals["clash"])] + _disjoint_pairs(
            intervals, 3
        )
        an = SynchronizationAnalyzer(
            intervals["mid"].execution, check_disjoint=False
        )
        got = _surfaces(an)[surface](pairs)
        assert got == _scalar(an, surface, pairs)


def test_range_test_runs_on_all_pairs_of_large_intervals(monkeypatch):
    """Unpatched, the cost gate sends an all-pairs batch of 200-event
    intervals through the range test, and a few small pairs past it."""
    calls = []
    real = evaluator._range_overlaps
    monkeypatch.setattr(
        evaluator, "_range_overlaps",
        lambda *args: calls.append(args) or real(*args),
    )
    b = TraceBuilder(1)
    for _ in range(2000):
        b.internal(0)
    ex = b.execute()
    ivs = [NonatomicEvent(ex, [(0, j) for j in range(s + 1, s + 201)])
           for s in range(0, 2000, 200)]
    an = SynchronizationAnalyzer(ex)
    an.strongest_batch([(x, y) for x in ivs for y in ivs if x is not y])
    assert len(calls) == 1
    an.strongest_batch([(ivs[0], ivs[1]), (ivs[1], ivs[0])])
    assert len(calls) == 1


def test_range_overlaps_clears_absent_nodes(intervals):
    """Only ranges on a shared node overlap: a node one interval lacks
    proves nothing, so just the interleaved pair stays a suspect."""
    names = ["odd", "even", "early", "late", "mid"]
    mask = evaluator._range_overlaps([intervals[n] for n in names], 2)
    want = np.eye(len(names), dtype=np.bool_)
    want[0, 1] = want[1, 0] = True  # "odd" and "even" interleave
    assert np.array_equal(mask, want)
    # nor does a node both lack
    odd = intervals["odd"]
    tail = NonatomicEvent(odd.execution, [(0, 7)], name="tail")
    both = evaluator._range_overlaps([odd, tail], 2)
    assert np.array_equal(both, np.eye(2, dtype=np.bool_))


class TestVerdictMatrixSlices:
    @pytest.mark.parametrize(
        "q", [1, PAIR_SLICE - 1, PAIR_SLICE, PAIR_SLICE + 1,
              2 * PAIR_SLICE + 3],
    )
    def test_matches_per_pair_reference(self, q):
        rng = np.random.default_rng(q)
        k, num_nodes = 9, 5
        ops = rng.integers(0, 4, size=(k, 12, num_nodes)).astype(np.int32)
        xs = rng.integers(0, k, size=q)
        ys = rng.integers(0, k, size=q)
        got = verdict_matrix(ops, xs, ys)
        assert got.shape == (q, len(SUBTEST_KEYS)) and got.dtype == np.bool_
        # one compare_rows call per distinct (x, y) interval pair
        ref = {}
        for a, b in set(zip(xs.tolist(), ys.tolist(), strict=True)):
            ref[a, b] = [
                bool(compare_rows(kind, ops[b, OPERAND_INDEX[yop]],
                                  ops[a, OPERAND_INDEX[xop]]))
                for kind, yop, xop in SUBTEST_KEYS
            ]
        want = np.array(
            [ref[a, b] for a, b in zip(xs.tolist(), ys.tolist(), strict=True)],
            dtype=np.bool_,
        )
        assert np.array_equal(got, want)


class TestIntervalValidation:
    """Each bad id is rejected whether it is its node's least or greatest
    member (or the least or greatest node), and named in the error."""

    BAD = [
        [(0, 0)],
        [(0, 0), (0, 2)],  # index 0 as the node's minimum
        [(1, 9)],
        [(1, 2), (1, 9)],  # k_n + 1 as the node's maximum
        [(-1, 1)],
        [(-1, 1), (0, 1)],  # node -1 as the least node
        [(2, 1)],
        [(0, 1), (2, 1)],  # node P as the greatest node
        [(0, 1), (2, 1), (2, 3)],
    ]

    @pytest.mark.parametrize("ids", BAD)
    def test_rejects(self, ids):
        ex = _execution()
        assert ex.num_nodes == 2 and ex.lengths == (8, 8)
        bad = [(n, j) for n, j in ids if not (0 <= n < 2 and 1 <= j <= 8)]
        with pytest.raises(ValueError, match="not a real event") as err:
            NonatomicEvent(ex, ids)
        assert any(str(eid) in str(err.value) for eid in bad)

    def test_accepts_numpy_ids(self):
        ex = _execution()
        ids = [(np.int64(0), np.int32(1)), (np.intp(1), np.int64(8))]
        x = NonatomicEvent(ex, ids)
        assert x == NonatomicEvent(ex, [(0, 1), (1, 8)])
        assert all(type(v) is int for eid in x.ids for v in eid)
        assert x.first_ids() == ((0, 1), (1, 8))
        assert x.last_ids() == ((0, 1), (1, 8))
