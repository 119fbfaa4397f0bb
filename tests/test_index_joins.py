"""Tests for McCatch's three similarity joins (SELFJOINC, JOINC,
SELFJOIN) as :class:`repro.engine.BatchQueryEngine` runs them, and the
Sec. IV-G speed-up principles."""

import numpy as np
import pytest

from repro.engine import BatchQueryEngine
from repro.index import UNKNOWN_COUNT, BruteForceIndex, available_index_kinds, build_index
from repro.metric.base import MetricSpace


@pytest.fixture(scope="module")
def space(small_points):
    return MetricSpace(small_points)


@pytest.fixture(scope="module")
def radii(space):
    diameter = BruteForceIndex(space).diameter_estimate()
    return np.array([diameter / 2**k for k in range(7, -1, -1)])


class TestSelfJoinCounts:
    def test_exhaustive_matches_manual(self, space, radii):
        engine = BatchQueryEngine(build_index(space, kind="brute"))
        counts = engine.self_join_counts(radii, sparse_focused=False, small_radii_only=False)
        dm = space.distance_matrix()
        for e, r in enumerate(radii):
            manual = (dm <= r).sum(axis=1)
            assert np.array_equal(counts[:, e], manual)

    def test_counts_nondecreasing_in_radius(self, space, radii):
        engine = BatchQueryEngine(build_index(space, kind="brute"))
        counts = engine.self_join_counts(radii, sparse_focused=False, small_radii_only=False)
        assert (np.diff(counts, axis=1) >= 0).all()

    def test_sparse_focused_agrees_where_known(self, space, radii):
        engine = BatchQueryEngine(build_index(space, kind="brute"))
        c = 10
        full = engine.self_join_counts(radii, sparse_focused=False, small_radii_only=False)
        sparse = engine.self_join_counts(radii, max_cardinality=c, small_radii_only=False)
        known = sparse != UNKNOWN_COUNT
        assert np.array_equal(sparse[known], full[known])

    def test_sparse_focused_skips_only_after_exceeding_c(self, space, radii):
        engine = BatchQueryEngine(build_index(space, kind="brute"))
        c = 10
        sparse = engine.self_join_counts(radii, max_cardinality=c, small_radii_only=False)
        n, a = sparse.shape
        for i in range(n):
            for e in range(1, a):
                if sparse[i, e] == UNKNOWN_COUNT:
                    # The previous known count must exceed c.
                    prev = sparse[i, e - 1]
                    assert prev == UNKNOWN_COUNT or prev > c

    def test_small_radii_only_fills_last_column_with_n(self, space, radii):
        engine = BatchQueryEngine(build_index(space, kind="brute"))
        counts = engine.self_join_counts(radii, sparse_focused=False)
        assert (counts[:, -1] == len(space)).all()

    def test_self_always_counted(self, space, radii):
        engine = BatchQueryEngine(build_index(space, kind="brute"))
        counts = engine.self_join_counts(radii, sparse_focused=False, small_radii_only=False)
        assert (counts[:, 0] >= 1).all()

    def test_rejects_nonincreasing_radii(self, space):
        engine = BatchQueryEngine(build_index(space, kind="brute"))
        with pytest.raises(ValueError, match="strictly increasing"):
            engine.self_join_counts([1.0, 1.0, 2.0])

    def test_rejects_single_radius(self, space):
        engine = BatchQueryEngine(build_index(space, kind="brute"))
        with pytest.raises(ValueError, match="two radii"):
            engine.self_join_counts([1.0])

    @pytest.mark.parametrize("kind", available_index_kinds())
    def test_index_kinds_agree(self, space, radii, kind):
        ref = BatchQueryEngine(build_index(space, kind="brute")).self_join_counts(
            radii, max_cardinality=12
        )
        got = BatchQueryEngine(build_index(space, kind=kind)).self_join_counts(
            radii, max_cardinality=12
        )
        assert np.array_equal(ref, got)


class TestJoinCounts:
    def test_counts_against_other_set(self, space):
        inlier_ids = np.arange(0, 40)
        query_ids = np.arange(40, 60)
        idx = build_index(space, inlier_ids, kind="brute")
        r = 2.0
        got = BatchQueryEngine(idx).join_counts(query_ids, r)
        dm = space.distances_among(query_ids, inlier_ids)
        assert np.array_equal(got, (dm <= r).sum(axis=1))

    def test_disjoint_sets_no_self_count(self, space):
        idx = build_index(space, np.array([0]), kind="brute")
        got = BatchQueryEngine(idx).join_counts(np.array([1]), 1e-12)
        assert got[0] in (0, 1)  # 1 only if points 0 and 1 coincide


class TestSelfJoinPairs:
    def test_pairs_are_within_radius_and_complete(self, space):
        ids = np.arange(0, 30)
        idx = build_index(space, ids, kind="vptree")
        r = 1.5
        pairs = set(BatchQueryEngine(idx).pairs(r))
        dm = space.distance_matrix()
        for i in ids:
            for j in ids:
                if i < j:
                    assert ((i, j) in pairs) == (dm[i, j] <= r)
