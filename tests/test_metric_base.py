"""Tests for repro.metric.base: MetricSpace and PrecomputedMetric."""

import numpy as np
import pytest

from repro.metric.base import MetricSpace, PrecomputedMetric, pairwise_distances
from repro.metric.strings import levenshtein


class TestVectorSpace:
    def test_basic_properties(self, vector_space):
        assert vector_space.is_vector
        assert vector_space.dimensionality == 2
        assert len(vector_space) == 510

    def test_1d_array_promoted(self):
        space = MetricSpace(np.array([1.0, 2.0, 5.0]))
        assert space.dimensionality == 1
        assert space.distance(0, 2) == pytest.approx(4.0)

    def test_distance_matrix_symmetric_zero_diag(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        dm = MetricSpace(X).distance_matrix()
        assert np.allclose(dm, dm.T)
        assert np.allclose(np.diag(dm), 0.0, atol=1e-7)

    def test_distances_match_matrix(self):
        X = np.random.default_rng(1).normal(size=(15, 2))
        space = MetricSpace(X)
        dm = space.distance_matrix()
        got = space.distances(3, [0, 7, 14])
        assert np.allclose(got, dm[3, [0, 7, 14]])

    def test_distances_among(self):
        X = np.random.default_rng(2).normal(size=(10, 2))
        space = MetricSpace(X)
        dm = space.distance_matrix()
        got = space.distances_among([1, 3], [0, 5, 9])
        assert np.allclose(got, dm[np.ix_([1, 3], [0, 5, 9])])

    def test_distances_to_external_object(self):
        X = np.zeros((3, 2))
        space = MetricSpace(X)
        d = space.distances_to(np.array([3.0, 4.0]), [0, 1])
        assert np.allclose(d, 5.0)

    def test_subset(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        sub = MetricSpace(X).subset([2, 5])
        assert len(sub) == 2
        assert sub.distance(0, 1) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MetricSpace(np.empty((0, 2)))

    def test_3d_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            MetricSpace(np.zeros((2, 2, 2)))


class TestObjectSpace:
    def test_requires_metric(self):
        with pytest.raises(ValueError, match="explicit metric"):
            MetricSpace(["a", "b"])

    def test_metric_must_be_callable(self):
        with pytest.raises(TypeError):
            MetricSpace(["a", "b"], metric="edit")

    def test_distance(self, string_space):
        assert not string_space.is_vector
        assert string_space.dimensionality is None
        assert string_space.distance(0, 1) == 1.0  # SMITH vs SMYTH

    def test_distance_matrix_metric_axioms(self, string_space):
        dm = string_space.distance_matrix()
        assert np.allclose(dm, dm.T)
        assert np.allclose(np.diag(dm), 0.0)

    def test_subset_preserves_metric(self, string_space):
        sub = string_space.subset([0, 1])
        assert sub.distance(0, 1) == 1.0


class TestPrecomputedMetric:
    def test_space_roundtrip(self):
        m = np.array([[0.0, 2.0], [2.0, 0.0]])
        space = PrecomputedMetric(m).space()
        assert space.distance(0, 1) == 2.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            PrecomputedMetric(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PrecomputedMetric(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            PrecomputedMetric(np.zeros((2, 3)))


def test_pairwise_distances_helper():
    dm = pairwise_distances(["AB", "AC", "BX"], levenshtein)
    assert dm.shape == (3, 3)
    assert dm[0, 1] == 1.0
    assert dm[0, 2] == 2.0


class TestPairedDistances:
    def test_vector_matches_distances_bitwise(self):
        rng = np.random.default_rng(2)
        space = MetricSpace(rng.normal(size=(20, 3)))
        left = rng.integers(0, 20, size=15)
        right = rng.integers(0, 20, size=15)
        paired = space.paired_distances(left, right)
        for k in range(15):
            assert paired[k] == space.distance(int(left[k]), int(right[k]))

    def test_object_space(self):
        space = MetricSpace(["AB", "AC", "BX", "AB"], levenshtein)
        out = space.paired_distances([0, 1, 0], [3, 2, 2])
        assert out.tolist() == [0.0, 2.0, 2.0]

    def test_length_mismatch_rejected(self):
        space = MetricSpace(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="equal lengths"):
            space.paired_distances([0, 1], [2])


class TestPairedDistancesTo:
    @pytest.mark.parametrize("metric", ["euclidean", "cityblock", "chebyshev", 3])
    def test_vector_matches_block_entries_bitwise(self, metric):
        rng = np.random.default_rng(3)
        space = MetricSpace(rng.normal(size=(30, 5)) * 100.0, metric)
        rows = np.vstack([rng.normal(size=(8, 5)), space.data[:4]])
        ids = rng.integers(0, 30, size=rows.shape[0])
        block = space.distances_to_many(rows, np.arange(30))
        paired = space.paired_distances_to(rows, ids)
        assert np.array_equal(paired, block[np.arange(rows.shape[0]), ids])
        assert (paired[8:][ids[8:] == np.arange(4)] == 0.0).all()

    def test_object_space(self):
        space = MetricSpace(["AB", "AC", "BX"], levenshtein)
        out = space.paired_distances_to(["AB", "ZZZ", "BX"], [1, 0, 2])
        assert out.tolist() == [1.0, 3.0, 0.0]

    def test_length_mismatch_rejected(self):
        space = MetricSpace(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="equal lengths"):
            space.paired_distances_to(np.zeros((2, 2)), [1])
