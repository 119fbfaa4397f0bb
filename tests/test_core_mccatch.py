"""End-to-end tests for the McCatch driver (Alg. 1) and result objects."""

import numpy as np
import pytest

from repro import McCatch, MetricSpace, detect_microclusters
from repro.datasets.benchmarks import make_http_like
from repro.index import available_index_kinds, ckernel
from repro.metric.strings import levenshtein


class TestHyperparameterValidation:
    def test_defaults_are_papers(self):
        det = McCatch()
        assert det.n_radii == 15
        assert det.max_slope == 0.1
        assert det.max_cardinality_fraction == 0.1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_radii=1),
            dict(max_slope=-0.1),
            dict(max_cardinality_fraction=0.0),
            dict(max_cardinality_fraction=1.5),
            dict(max_cardinality=0),
            dict(transformation_cost=-1.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        det_kwargs = dict(kwargs)
        tcost = det_kwargs.pop("transformation_cost", None)
        if tcost is not None:
            det = McCatch(transformation_cost=tcost)
            with pytest.raises(ValueError):
                det.fit(np.random.default_rng(0).normal(size=(30, 2)))
        else:
            with pytest.raises((ValueError, TypeError)):
                McCatch(**det_kwargs)

    def test_absolute_c_overrides_fraction(self):
        det = McCatch(max_cardinality=7)
        assert det._resolve_c(1000) == 7

    def test_fraction_c(self):
        assert McCatch()._resolve_c(1000) == 100
        assert McCatch()._resolve_c(5) == 1


class TestFitOnVectors:
    def test_detects_planted_structure(self, blob_with_mc):
        X, labels = blob_with_mc
        result = McCatch().fit(X)
        detected = set(map(int, result.outlier_indices))
        planted = set(np.nonzero(labels > 0)[0])
        assert planted.issubset(detected)

    def test_deterministic(self, blob_with_mc):
        X, _ = blob_with_mc
        r1 = McCatch().fit(X)
        r2 = McCatch().fit(X)
        assert np.array_equal(r1.point_scores, r2.point_scores)
        assert [tuple(m.indices) for m in r1.microclusters] == [
            tuple(m.indices) for m in r2.microclusters
        ]

    def test_ranking_most_strange_first(self, blob_with_mc):
        X, _ = blob_with_mc
        result = McCatch().fit(X)
        scores = [m.score for m in result.microclusters]
        assert scores == sorted(scores, reverse=True)

    def test_microclusters_disjoint(self, blob_with_mc):
        X, _ = blob_with_mc
        result = McCatch().fit(X)
        seen = set()
        for mc in result.microclusters:
            members = set(map(int, mc.indices))
            assert not members & seen
            seen |= members

    def test_labels_property(self, blob_with_mc):
        X, labels = blob_with_mc
        result = McCatch().fit(X)
        out_labels = result.labels
        assert out_labels.shape == (X.shape[0],)
        assert (out_labels[result.outlier_indices] >= 0).all()
        inlier_positions = np.setdiff1d(np.arange(X.shape[0]), result.outlier_indices)
        assert (out_labels[inlier_positions] == -1).all()

    def test_fit_scores_shortcut(self, blob_with_mc):
        X, _ = blob_with_mc
        assert np.array_equal(McCatch().fit_scores(X), McCatch().fit(X).point_scores)

    def test_detect_microclusters_helper(self, blob_with_mc):
        X, _ = blob_with_mc
        result = detect_microclusters(X, n_radii=10)
        assert result.oracle.radii.size == 10

    @pytest.mark.parametrize("kind", available_index_kinds())
    def test_index_kinds_find_planted_outliers(self, blob_with_mc, kind):
        # Radii ladders may differ across kinds (diameter estimates vary),
        # but every index must surface the planted structure.
        X, labels = blob_with_mc
        got = McCatch(index=kind).fit(X)
        planted = set(np.nonzero(labels > 0)[0])
        assert planted <= set(map(int, got.outlier_indices))

    @pytest.mark.parametrize("no_kernel", [False, True], ids=["kernel", "numpy_walk"])
    @pytest.mark.parametrize("data", ["http", "20d"])
    def test_default_fit_is_the_vptree_fit(self, data, no_kernel, monkeypatch):
        """``index="auto"`` builds the VP-tree whether or not the C kernel
        runs, so the default verdict is the same on every machine."""
        if no_kernel:
            monkeypatch.setenv(ckernel.ENV_DISABLE, "1")
        if data == "http":
            X, _ = make_http_like(2000, random_state=0)
        else:
            rng = np.random.default_rng(4)
            X = np.vstack([rng.normal(0, 1, (600, 20)), rng.normal(6, 0.05, (8, 20))])
        default = McCatch().fit(X)
        vptree = McCatch(index="vptree").fit(X)
        assert default.microclusters, "planted structure should be detected"
        assert np.array_equal(default.point_scores, vptree.point_scores)
        assert np.array_equal(default.oracle.counts, vptree.oracle.counts)
        assert [(m.indices.tolist(), m.score) for m in default.microclusters] == [
            (m.indices.tolist(), m.score) for m in vptree.microclusters
        ]

    def test_ckdtree_refuses_non_euclidean_metric(self):
        # scipy's cKDTree measures L2 only: answering this cityblock fit
        # with it would give 100 microclusters where brute force finds 5.
        X, _ = make_http_like(1500, random_state=0)
        with pytest.raises(TypeError, match="Euclidean metric"):
            McCatch(index="ckdtree").fit(X, metric="cityblock")
        auto = McCatch().fit(X, metric="cityblock")
        brute = McCatch(index="brute").fit(X, metric="cityblock")
        assert np.array_equal(auto.point_scores, brute.point_scores)
        assert [m.indices.tolist() for m in auto.microclusters] == [
            m.indices.tolist() for m in brute.microclusters
        ]

    def test_uniform_data_few_outliers(self):
        X = np.random.default_rng(5).uniform(size=(800, 2))
        result = McCatch().fit(X)
        assert result.n_outliers <= 40  # no planted structure: sparse output

    def test_accepts_metric_space(self, blob_with_mc):
        X, _ = blob_with_mc
        result = McCatch().fit(MetricSpace(X))
        assert result.n == X.shape[0]


class TestFitOnObjects:
    def test_string_data(self):
        names = ["SMITH", "SMYTH", "SMITT", "SMITHE"] * 25 + ["XQWZKJY", "XQWZKJX"]
        result = McCatch(index="vptree").fit(names, levenshtein)
        detected = set(map(int, result.outlier_indices))
        assert {100, 101} <= detected
        # The two weird names are mutual neighbors: expect one 2-elements mc.
        pair = [m for m in result.microclusters if set(map(int, m.indices)) == {100, 101}]
        assert len(pair) == 1

    def test_bare_string_batch_rejected(self):
        """score_batch("SMITH") is one element, not five characters."""
        names = ["SMITH", "SMYTH", "SMITT", "SMITHE"] * 25 + ["XQWZKJY", "XQWZKJX"]
        model = McCatch(index="vptree").fit_model(names, levenshtein)
        for bare in ("SMITH", b"SMITH"):
            with pytest.raises(TypeError, match="bare"):
                model.score_batch(bare)
        assert model.score_batch(["SMITH"]).scores.tolist() == [0.0]

    def test_transformation_cost_autodetected_for_strings(self):
        det = McCatch()
        space = MetricSpace(["AB", "CD"], levenshtein)
        t = det._resolve_transformation_cost(space)
        assert t > 1.0

    def test_transformation_cost_fallback_for_unknown_objects(self):
        det = McCatch()
        space = MetricSpace([(0,), (1,)], lambda a, b: abs(a[0] - b[0]))
        assert det._resolve_transformation_cost(space) == 1.0

    def test_explicit_transformation_cost_wins(self):
        det = McCatch(transformation_cost=42.0)
        space = MetricSpace(["AB", "CD"], levenshtein)
        assert det._resolve_transformation_cost(space) == 42.0


class TestResultSurface:
    def test_summary_renders(self, blob_with_mc):
        X, _ = blob_with_mc
        text = McCatch().fit(X).summary()
        assert "McCatchResult" in text and "score" in text

    def test_nonsingleton_filter(self, blob_with_mc):
        X, _ = blob_with_mc
        result = McCatch().fit(X)
        assert all(m.cardinality >= 2 for m in result.nonsingleton())

    def test_scores_alignment(self, blob_with_mc):
        X, _ = blob_with_mc
        result = McCatch().fit(X)
        assert np.array_equal(
            result.scores, np.array([m.score for m in result.microclusters])
        )

    def test_repr_microcluster(self, blob_with_mc):
        X, _ = blob_with_mc
        result = McCatch().fit(X)
        assert "Microcluster(" in repr(result.microclusters[0])
