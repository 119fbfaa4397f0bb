"""Tests for repro.core.gel (Alg. 3) and repro.core.scoring (Alg. 4/Def. 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cutoff import compute_cutoff, outlier_mask
from repro.core.gel import connected_components, spot_microclusters
from repro.core.mccatch import McCatch
from repro.core.oracle import build_oracle_plot
from repro.core.radii import define_radii
from repro.core.scoring import (
    microcluster_score,
    nearest_inlier_distances,
    point_score,
)
from repro.index import build_index
from repro.metric.base import MetricSpace


class TestConnectedComponents:
    def test_simple_chain(self):
        ids = np.array([10, 20, 30, 40])
        comps = connected_components(ids, [(10, 20), (20, 30)])
        comps = sorted(comps, key=len)
        assert [list(c) for c in comps] == [[40], [10, 20, 30]]

    def test_no_edges_all_singletons(self):
        comps = connected_components(np.array([1, 2, 3]), [])
        assert sorted(len(c) for c in comps) == [1, 1, 1]

    def test_cycle(self):
        comps = connected_components(np.array([0, 1, 2]), [(0, 1), (1, 2), (2, 0)])
        assert len(comps) == 1 and list(comps[0]) == [0, 1, 2]

    @given(
        n=st.integers(2, 30),
        edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=50),
    )
    @settings(max_examples=50)
    def test_partition_property(self, n, edges):
        ids = np.arange(n)
        edges = [(a % n, b % n) for a, b in edges]
        comps = connected_components(ids, edges)
        all_members = sorted(int(i) for c in comps for i in c)
        assert all_members == list(range(n))  # partition: no loss, no dup


class TestGel:
    def _pipeline(self, X):
        space = MetricSpace(X)
        tree = build_index(space)
        radii = define_radii(tree, 15)
        c = max(1, int(np.ceil(0.1 * len(space))))
        oracle = build_oracle_plot(tree, radii, max_slope=0.1, max_cardinality=c)
        cutoff = compute_cutoff(oracle.first_end_index, radii)
        outliers = np.nonzero(outlier_mask(oracle, cutoff))[0]
        return space, oracle, cutoff, outliers

    def test_planted_mc_gels_into_one_cluster(self, blob_with_mc):
        X, labels = blob_with_mc
        space, oracle, cutoff, outliers = self._pipeline(X)
        clusters = spot_microclusters(space, oracle, cutoff, outliers)
        mc_members = set(np.nonzero(labels == 1)[0])
        covering = [c for c in clusters if mc_members.issubset(set(map(int, c)))]
        assert len(covering) == 1

    def test_singletons_stay_single(self, blob_with_mc):
        X, labels = blob_with_mc
        space, oracle, cutoff, outliers = self._pipeline(X)
        clusters = spot_microclusters(space, oracle, cutoff, outliers)
        for s in np.nonzero(labels == 2)[0]:
            containing = [c for c in clusters if int(s) in set(map(int, c))]
            assert len(containing) == 1
            assert containing[0].size == 1

    def test_empty_outliers(self, blob_with_mc):
        X, _ = blob_with_mc
        space, oracle, cutoff, _ = self._pipeline(X)
        assert spot_microclusters(space, oracle, cutoff, np.array([], dtype=np.intp)) == []

    def test_clusters_partition_outliers(self, blob_with_mc):
        X, _ = blob_with_mc
        space, oracle, cutoff, outliers = self._pipeline(X)
        clusters = spot_microclusters(space, oracle, cutoff, outliers)
        flat = sorted(int(i) for c in clusters for i in c)
        assert flat == sorted(int(i) for i in outliers)


class TestDef7Score:
    def test_isolation_axiom_monotonicity(self):
        base = dict(cardinality=10, n=1000, mean_1nn=0.5, r1=0.01, transformation_cost=2.0)
        near = microcluster_score(bridge_length=1.0, **base)
        far = microcluster_score(bridge_length=10.0, **base)
        assert far > near

    def test_cardinality_axiom_monotonicity(self):
        base = dict(n=1000, bridge_length=5.0, mean_1nn=0.5, r1=0.01, transformation_cost=2.0)
        small = microcluster_score(cardinality=10, **base)
        large = microcluster_score(cardinality=100, **base)
        assert small > large

    @given(
        card=st.integers(1, 500),
        bridge=st.floats(0.0, 1e4),
        mean_1nn=st.floats(0.0, 1e3),
        t=st.floats(0.5, 100),
    )
    @settings(max_examples=100)
    def test_score_positive_and_finite(self, card, bridge, mean_1nn, t):
        s = microcluster_score(card, 10_000, bridge, mean_1nn, r1=0.01, transformation_cost=t)
        assert np.isfinite(s) and s > 0

    @given(card=st.integers(1, 200), extra=st.floats(0.1, 100.0))
    @settings(max_examples=60)
    def test_isolation_axiom_property(self, card, extra):
        base = dict(cardinality=card, n=5000, mean_1nn=0.3, r1=0.005, transformation_cost=3.0)
        s_near = microcluster_score(bridge_length=1.0, **base)
        s_far = microcluster_score(bridge_length=1.0 + extra, **base)
        assert s_far >= s_near

    @given(card=st.integers(1, 200), more=st.integers(1, 200))
    @settings(max_examples=60)
    def test_cardinality_axiom_property(self, card, more):
        base = dict(n=5000, bridge_length=4.0, mean_1nn=0.3, r1=0.005, transformation_cost=3.0)
        s_small = microcluster_score(cardinality=card, **base)
        s_large = microcluster_score(cardinality=card + more, **base)
        assert s_small >= s_large

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            microcluster_score(0, 10, 1.0, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            microcluster_score(5, 10, 1.0, 1.0, 0.0, 1.0)

    def test_point_score_monotone_in_g(self):
        assert point_score(10.0, 0.1) > point_score(1.0, 0.1) > point_score(0.0, 0.1)


class TestScoreMicroclusters:
    def test_full_scoring(self, blob_with_mc):
        X, labels = blob_with_mc
        result = McCatch().fit(X)
        # Singletons (far away) must outrank the 8-point mc and inliers.
        assert result.microclusters[0].is_singleton
        mc_scores = {m.cardinality: m.score for m in result.microclusters}
        assert max(mc_scores) >= 8  # the planted mc was found

    def test_point_scores_rank_outliers_above_inliers(self, blob_with_mc):
        X, labels = blob_with_mc
        result = McCatch().fit(X)
        outlier_scores = result.point_scores[labels > 0]
        inlier_scores = result.point_scores[labels == 0]
        assert outlier_scores.min() > np.percentile(inlier_scores, 95)

    def test_nearest_inlier_distances_inliers_use_x(self, blob_with_mc):
        X, _ = blob_with_mc
        space = MetricSpace(X)
        tree = build_index(space)
        radii = define_radii(tree, 15)
        oracle = build_oracle_plot(tree, radii, max_slope=0.1, max_cardinality=51)
        g = nearest_inlier_distances(space, np.array([], dtype=np.intp), oracle)
        assert np.array_equal(g, oracle.x)

    def test_bridge_lengths_quantized_to_rungs(self, blob_with_mc):
        X, labels = blob_with_mc
        result = McCatch().fit(X)
        rungs = set(np.round(result.oracle.radii, 9)) | {0.0}
        for mc in result.microclusters:
            assert round(mc.bridge_length, 9) in rungs

    def test_all_points_outliers_edge_case(self):
        # Two far-apart tight pairs: everything can be outlying.
        X = np.array([[0, 0], [0.01, 0], [100, 100], [100.01, 100]])
        result = McCatch(n_radii=8).fit(X)
        assert np.isfinite(result.point_scores).all()
