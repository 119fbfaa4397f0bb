"""Tests for the 11 competitor baselines.

Each detector is checked for: correct output shape, score orientation
(planted singletons outrank inliers), determinism where promised, and
method-specific behaviours (LOF locality, iForest path lengths,
Gen2Out's groups, D.MCA's assignments, RDA's sparse split).
"""

import numpy as np
import pytest

from repro.baselines import (
    ABOD,
    ALOCI,
    DBOut,
    DMCA,
    FastABOD,
    Gen2Out,
    IForest,
    KNNOut,
    LOCI,
    LOF,
    ODIN,
    RDA,
    default_detectors,
    hyperparameter_grid,
    scalable_detectors,
)
from repro.baselines.iforest import average_path_length
from repro.eval.metrics import auroc


@pytest.fixture(scope="module")
def scattered():
    """300 inliers + 6 mutually distant singleton outliers."""
    rng = np.random.default_rng(1)
    inliers = rng.normal(0, 1, (300, 3))
    outliers = np.array(
        [[8, 0, 0], [0, 9, 0], [0, 0, 10], [-8, 0, 0], [0, -9, 0], [7, 7, 7]], float
    )
    X = np.vstack([inliers, outliers])
    y = np.zeros(306, dtype=int)
    y[300:] = 1
    return X, y


ALL_CLASSES = [ABOD, ALOCI, DBOut, DMCA, FastABOD, Gen2Out, IForest, LOCI, LOF, ODIN, RDA, KNNOut]


def make(cls):
    return cls(random_state=0) if not cls(**{}).deterministic else cls()


@pytest.mark.parametrize("cls", ALL_CLASSES)
class TestCommonContract:
    def test_shape_and_finiteness(self, cls, scattered):
        X, _ = scattered
        scores = make(cls).fit_scores(X)
        assert scores.shape == (X.shape[0],)
        assert np.isfinite(scores).all()

    def test_orientation_on_scattered_singletons(self, cls, scattered):
        X, y = scattered
        scores = make(cls).fit_scores(X)
        assert auroc(y, scores) > 0.8  # higher = more anomalous

    def test_seeded_repeatability(self, cls, scattered):
        X, _ = scattered
        det_a = cls(random_state=0) if not cls().deterministic else cls()
        det_b = cls(random_state=0) if not cls().deterministic else cls()
        assert np.array_equal(det_a.fit_scores(X), det_b.fit_scores(X))


class TestKNNFamily:
    def test_knnout_score_is_kth_distance(self):
        X = np.array([[0.0], [1.0], [3.0], [10.0]])
        scores = KNNOut(k=1).fit_scores(X)
        assert scores[0] == pytest.approx(1.0)
        assert scores[3] == pytest.approx(7.0)

    def test_odin_indegree(self):
        # A far point is nobody's 1-NN: in-degree 0 -> score 0 (max).
        X = np.array([[0.0], [0.1], [0.2], [50.0]])
        scores = ODIN(k=1).fit_scores(X)
        assert scores[3] == 0.0
        assert scores[3] >= scores.max() - 1e-12

    def test_k_validation(self):
        with pytest.raises(ValueError):
            KNNOut(k=0)
        with pytest.raises(ValueError):
            ODIN(k=-1)

    def test_knn_runs_on_the_kdtree(self, scattered, monkeypatch):
        """The kNN asks for the kd-tree by name: the ``auto`` VP-tree has
        no kNN walk and would scan O(n²) distance blocks."""
        from repro.index.ckdtree import CKDTreeIndex

        calls = []
        knn_all = CKDTreeIndex.knn_all

        def spy(index, k):
            calls.append(k)
            return knn_all(index, k)

        monkeypatch.setattr(CKDTreeIndex, "knn_all", spy)
        X, _ = scattered
        assert KNNOut(k=4).fit_scores(X).shape == (X.shape[0],)
        assert calls == [4]


class TestLOF:
    def test_uniform_cloud_scores_near_one(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(400, 2))
        scores = LOF(k=10).fit_scores(X)
        assert 0.9 < np.median(scores) < 1.15

    def test_misses_dense_microcluster(self):
        """The paper's motivation: LOF fails on clustered outliers."""
        rng = np.random.default_rng(0)
        inliers = rng.normal(0, 1, (300, 2))
        mc = rng.normal(0, 0.01, (10, 2)) + [8.0, 8.0]  # tight clump
        X = np.vstack([inliers, mc])
        y = np.zeros(310, dtype=int)
        y[300:] = 1
        assert auroc(y, LOF(k=5).fit_scores(X)) < 0.9


class TestABOD:
    def test_fastabod_needs_k2(self):
        with pytest.raises(ValueError):
            FastABOD(k=1)

    def test_abod_duplicates_are_extreme(self):
        X = np.vstack([np.random.default_rng(0).normal(size=(50, 2)), [[9, 9]], [[9, 9]]])
        scores = ABOD().fit_scores(X)
        # Duplicate far points see zero angle variance -> most anomalous.
        assert scores[50] >= np.percentile(scores, 90)


class TestIForest:
    def test_average_path_length_known_values(self):
        assert average_path_length(np.array([1]))[0] == 0.0
        assert average_path_length(np.array([2]))[0] == 1.0
        # c(n) grows ~ 2 ln(n-1) + gamma
        assert 5.0 < average_path_length(np.array([256]))[0] < 15.0

    def test_scores_in_unit_interval(self, scattered):
        X, _ = scattered
        s = IForest(random_state=0).fit_scores(X)
        assert (s > 0).all() and (s < 1).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            IForest(n_trees=0)
        with pytest.raises(ValueError):
            IForest(subsample=1)


class TestDBOut:
    def test_radius_fraction_validation(self):
        with pytest.raises(ValueError):
            DBOut(radius_fraction=0.0)

    def test_scores_are_negated_counts(self):
        X = np.array([[0.0], [0.1], [0.2], [10.0]])
        s = DBOut(radius_fraction=0.05).fit_scores(X)
        assert s[3] == -1.0  # only itself within radius


class TestLOCI:
    def test_quadratic_exact_runs(self, scattered):
        X, y = scattered
        s = LOCI().fit_scores(X[:150])
        assert np.isfinite(s).all()

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            LOCI(alpha=0.0)


class TestGen2Out:
    def test_reports_groups_with_scores(self):
        rng = np.random.default_rng(0)
        inliers = rng.normal(0, 1, (400, 2))
        mc = rng.normal(0, 0.05, (12, 2)) + [9.0, 9.0]
        X = np.vstack([inliers, mc])
        res = Gen2Out(random_state=0).fit(X)
        assert len(res.groups) >= 1
        assert res.group_scores.shape == (len(res.groups),)
        # The planted clump should dominate one detected group.
        best = max(res.groups, key=lambda g: len(set(g) & set(range(400, 412))))
        assert len(set(best) & set(range(400, 412))) >= 6

    def test_group_scores_sorted(self, scattered):
        X, _ = scattered
        res = Gen2Out(random_state=0).fit(X)
        s = res.group_scores
        assert np.all(s[:-1] >= s[1:])


class TestDMCA:
    def test_assignments_populated(self, scattered):
        X, _ = scattered
        det = DMCA(random_state=0)
        det.fit_scores(X)
        assert det.assignments_ is not None
        flat = [i for grp in det.assignments_ for i in grp]
        assert len(flat) == len(set(flat))  # disjoint assignment

    def test_psi_validation(self):
        with pytest.raises(ValueError):
            DMCA(psi=1)


class TestRDA:
    def test_outliers_absorbed_into_s(self, scattered):
        X, y = scattered
        det = RDA(n_iter=10, random_state=0)
        s = det.fit_scores(X)
        assert auroc(y, s) > 0.9

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            RDA(n_layers=0)


class TestRegistry:
    def test_default_detectors_has_eleven(self):
        dets = default_detectors()
        assert len(dets) == 11
        assert len({d.name for d in dets}) == 11

    def test_scalable_subset(self):
        names = {d.name for d in scalable_detectors()}
        assert names == {"ALOCI", "iForest", "Gen2Out", "RDA"}

    @pytest.mark.parametrize(
        "name", ["ABOD", "ALOCI", "DB-Out", "D.MCA", "FastABOD", "Gen2Out",
                 "iForest", "LOCI", "LOF", "ODIN", "RDA", "kNN-Out"]
    )
    def test_grids_instantiate(self, name):
        grid = hyperparameter_grid(name, n=500)
        assert len(grid) >= 1

    def test_unknown_grid(self):
        with pytest.raises(KeyError):
            hyperparameter_grid("SVM", n=100)
