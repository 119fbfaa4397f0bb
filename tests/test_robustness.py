"""Fault injection and degenerate inputs across the public API.

Production data is messy: NaN/inf features, constant columns, single
elements, duplicate-saturated sets, misbehaving user metrics.  Every
entry point must either handle the case or fail *at the boundary* with
a clear message — never deep inside a join with an inscrutable trace.
"""

import numpy as np
import pytest

from repro import McCatch, MetricSpace, StreamingMcCatch, detect_microclusters
from repro.index import available_index_kinds, build_index
from repro.metric.strings import levenshtein


class TestDegenerateVectorData:
    def test_single_point(self):
        # One element: no neighbors, no diameter — a clean empty verdict.
        result = McCatch().fit(np.array([[1.0, 2.0]]))
        assert result.n == 1
        assert result.microclusters == [] or result.n_outliers <= 1

    def test_two_identical_points(self):
        result = McCatch().fit(np.zeros((2, 3)))
        assert result.n == 2
        assert np.isfinite(result.point_scores).all()

    def test_all_identical_points(self):
        result = McCatch().fit(np.ones((100, 2)))
        # Zero diameter: nothing can be anomalous.
        assert result.n_outliers == 0

    def test_constant_feature_column(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.normal(size=200), np.full(200, 7.0)])
        X = np.vstack([X, [[30.0, 7.0]]])
        result = McCatch().fit(X)
        assert 200 in set(map(int, result.outlier_indices))

    def test_collinear_data(self):
        X = np.column_stack([np.linspace(0, 1, 150), np.linspace(0, 2, 150)])
        X = np.vstack([X, [[5.0, 10.0]]])
        result = McCatch().fit(X)
        assert np.isfinite(result.point_scores).all()
        assert 150 in set(map(int, result.outlier_indices))

    def test_extreme_magnitudes(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(150, 2)) * 1e12
        X[-1] = [1e13, 1e13]
        result = McCatch().fit(X)
        assert np.isfinite(result.point_scores).all()

    def test_tiny_magnitudes(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(150, 2)) * 1e-12
        result = McCatch().fit(X)
        assert np.isfinite(result.point_scores).all()

    def test_one_dimensional_input_reshaped(self):
        values = np.concatenate([np.random.default_rng(3).normal(size=100), [50.0]])
        result = McCatch().fit(values)
        assert result.n == 101
        assert 100 in set(map(int, result.outlier_indices))


class TestInvalidInputs:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="at least one element"):
            McCatch().fit(np.zeros((0, 2)))

    def test_3d_array_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            McCatch().fit(np.zeros((4, 2, 2)))

    def test_object_data_without_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            McCatch().fit(["a", "b", "c"])

    def test_non_callable_metric_rejected(self):
        with pytest.raises(TypeError, match="callable"):
            McCatch().fit(["a", "b"], metric="levenshtein")

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            McCatch(n_radii=1)
        with pytest.raises(ValueError):
            McCatch(max_slope=-0.1)
        with pytest.raises(ValueError):
            McCatch(max_cardinality_fraction=0.0)
        with pytest.raises(ValueError):
            McCatch(max_cardinality=0)
        with pytest.raises(ValueError):
            McCatch(transformation_cost=-1.0).fit(np.zeros((3, 2)))

    def test_unknown_index_kind(self):
        with pytest.raises(ValueError, match="unknown index kind"):
            McCatch(index="quadtree").fit(np.zeros((5, 2)) + np.arange(5)[:, None])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", available_index_kinds())
class TestNonFiniteInput:
    """One NaN or inf entry fails at the boundary with one message, for
    every index kind — never deep in the plateau search, never as a
    silently all-zero verdict."""

    def test_fit_rejects(self, kind, bad):
        X = np.random.default_rng(0).normal(size=(60, 2))
        X[7, 1] = bad
        with pytest.raises(ValueError, match="X contains NaN or infinite values"):
            McCatch(index=kind).fit(X)
        with pytest.raises(ValueError, match="X contains NaN or infinite values"):
            McCatch(index=kind).fit_model(X)

    def test_score_batch_rejects(self, kind, bad):
        X = np.random.default_rng(0).normal(size=(60, 2))
        model = McCatch(index=kind).fit_model(X)
        with pytest.raises(ValueError, match="batch contains NaN or infinite values"):
            model.score_batch([[bad, 0.0]])


class TestMisbehavingMetrics:
    def test_metric_raising_propagates_cleanly(self):
        def broken(a, b):
            raise RuntimeError("distance backend is down")

        with pytest.raises(RuntimeError, match="backend is down"):
            McCatch(index="brute").fit(["a", "b", "c", "d"], metric=broken)

    def test_slow_but_correct_metric_works(self):
        calls = {"n": 0}

        def counting(a, b):
            calls["n"] += 1
            return levenshtein(a, b)

        words = ["abc", "abd", "abe", "xyz"] * 10 + ["qqqqqqqq", "qqqqqqqq"]
        result = McCatch(index="vptree").fit(words, metric=counting)
        assert calls["n"] > 0
        assert result.n == 42

    def test_zero_metric_everywhere_returns_empty_verdict(self):
        # All elements identical under the metric: the diameter is zero,
        # no radius ladder exists, and nothing can be anomalous.
        result = McCatch(index="brute").fit(list("abcdefgh"), metric=lambda a, b: 0.0)
        assert result.n_outliers == 0
        assert np.isinf(result.cutoff.value)


class TestDuplicateSaturation:
    @pytest.mark.parametrize("kind", [k for k in available_index_kinds() if k != "ckdtree"])
    def test_every_index_survives_duplicates(self, kind):
        """Two distinct inlier values saturate every split heuristic.

        This degenerate histogram (every inlier's 1NN distance is 0)
        keeps the MDL cutoff from flagging anything — what matters here
        is that no tree crashes and the per-point ranking still puts
        the planted word on top.
        """
        words = ["alpha", "beta"] * 50 + ["omegaomega"]
        result = McCatch(index=kind).fit(words, metric=levenshtein)
        assert np.isfinite(result.point_scores).all()
        assert int(np.argmax(result.point_scores)) == 100

    def test_duplicated_microcluster_detected(self):
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(0, 1, (300, 2)), np.tile([[9.0, 9.0]], (5, 1))])
        result = McCatch().fit(X)
        planted = {300, 301, 302, 303, 304}
        grouped = [m for m in result.microclusters
                   if planted <= set(map(int, m.indices))]
        assert grouped and grouped[0].cardinality == 5


class TestStreamingRobustness:
    def test_alternating_empty_batches(self):
        stream = StreamingMcCatch(min_fit_size=32)
        rng = np.random.default_rng(5)
        for i in range(6):
            batch = rng.normal(size=(0 if i % 2 else 30, 2))
            stream.update(batch)
        assert stream.n_seen == 90

    def test_single_row_batches(self):
        rng = np.random.default_rng(6)
        stream = StreamingMcCatch(min_fit_size=32)
        for _ in range(64):
            stream.update(rng.normal(size=(1, 2)))
        assert len(stream) == 64
        assert stream.result is not None


@pytest.mark.parametrize("kind", available_index_kinds())
class TestIndexBoundaryQueries:
    """The contract is ``d <= radius`` for every query of every kind: a
    negative radius finds nothing, zero finds self and exact duplicates,
    a huge radius finds everything."""

    def test_negative_radius_counts_nothing(self, kind):
        rng = np.random.default_rng(7)
        space = MetricSpace(rng.normal(size=(30, 2)))
        idx = build_index(space, kind=kind)
        assert (idx.count_within(np.arange(30), -1.0) == 0).all()

    def test_huge_radius_counts_everything(self, kind):
        rng = np.random.default_rng(8)
        space = MetricSpace(rng.normal(size=(30, 2)))
        idx = build_index(space, kind=kind)
        assert (idx.count_within(np.arange(30), 1e9) == 30).all()

    @staticmethod
    def _space_with_duplicates():
        X = np.random.default_rng(9).normal(size=(30, 2))
        X[[1, 2]] = X[0]  # elements 0, 1 and 2 coincide
        return MetricSpace(X)

    def test_count_within_many_boundary_radii(self, kind):
        idx = build_index(self._space_with_duplicates(), kind=kind)
        counts = idx.count_within_many(np.arange(30), [-1.0, 0.0, 1e9])
        assert (counts[:, 0] == 0).all()
        assert counts[:, 1].tolist() == [3, 3, 3] + [1] * 27
        assert (counts[:, 2] == 30).all()

    def test_pairs_within_boundary_radii(self, kind):
        idx = build_index(self._space_with_duplicates(), kind=kind)
        assert idx.pairs_within(-1.0) == []
        assert sorted(idx.pairs_within(0.0)) == [(0, 1), (0, 2), (1, 2)]
        assert len(set(idx.pairs_within(1e9))) == 30 * 29 // 2


class TestConvenienceEntrypoint:
    def test_detect_microclusters_forwards_kwargs(self):
        rng = np.random.default_rng(9)
        X = np.vstack([rng.normal(0, 1, (200, 2)), [[9.0, 9.0]]])
        result = detect_microclusters(X, n_radii=12, index="vptree")
        assert 200 in set(map(int, result.outlier_indices))
