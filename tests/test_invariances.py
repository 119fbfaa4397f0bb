"""Property tests of McCatch's structural invariances.

The paper's construction depends on the data only through distances, so
the detector must be invariant to rigid motions, equivariant under
permutation, and deterministic.  Scale changes move the radius ladder
proportionally, so detections are scale-invariant too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import McCatch


#: The default detector and the VP-tree it builds must both hold the
#: distance-only invariances below.
DETECTORS = (McCatch, lambda: McCatch(index="vptree"))


def _planted(seed: int, n: int = 200):
    rng = np.random.default_rng(seed)
    inliers = rng.normal(0.0, 1.0, (n, 2))
    mc = rng.normal(0.0, 0.02, (6, 2)) + [8.0, 8.0]
    single = np.array([[-9.0, 9.0]])
    return np.vstack([inliers, mc, single])


@st.composite
def rotations(draw):
    theta = draw(st.floats(0.0, 2 * np.pi, allow_nan=False))
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestRigidMotionInvariance:
    @given(seed=st.integers(0, 50), shift=st.floats(-1e3, 1e3))
    @settings(max_examples=15, deadline=None)
    def test_translation_invariance(self, seed, shift):
        # Translation changes coordinates but not distances.  The
        # diameter estimate can move by a float ulp, which may flip
        # points whose 1NN distance sits exactly on a radius rung —
        # so assert the planted structure and near-total score equality
        # rather than bit-identical output.
        X = _planted(seed)
        a = McCatch().fit(X)
        b = McCatch().fit(X + shift)
        planted = set(range(200, 207))
        assert planted <= set(map(int, a.outlier_indices))
        assert planted <= set(map(int, b.outlier_indices))
        agree = np.isclose(a.point_scores, b.point_scores).mean()
        assert agree >= 0.95  # ceil(g/r1) flips on exact rung boundaries

    @given(seed=st.integers(0, 50), R=rotations())
    @settings(max_examples=15, deadline=None)
    def test_rotation_preserves_detections(self, seed, R):
        # Rotation preserves Euclidean distances exactly; the VP-tree's
        # diameter estimate depends on distances only (the kd-tree's
        # bounding box would not be rotation-invariant).
        X = _planted(seed)
        for detector in DETECTORS:
            a = detector().fit(X)
            b = detector().fit(X @ R.T)
            assert np.array_equal(a.outlier_indices, b.outlier_indices)

    @given(seed=st.integers(0, 50), factor=st.floats(0.01, 100.0))
    @settings(max_examples=15, deadline=None)
    def test_scale_invariance_of_detections(self, seed, factor):
        X = _planted(seed)
        for detector in DETECTORS:
            a = detector().fit(X)
            b = detector().fit(X * factor)
            assert np.array_equal(a.outlier_indices, b.outlier_indices)


class TestPermutationEquivariance:
    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_outlier_set_permutes_with_data(self, seed):
        X = _planted(seed)
        rng = np.random.default_rng(seed + 1)
        perm = rng.permutation(X.shape[0])
        for detector in DETECTORS:
            a = detector().fit(X)
            b = detector().fit(X[perm])
            # Map b's detections back through the permutation.
            mapped = set(int(perm[i]) for i in b.outlier_indices)
            assert mapped == set(map(int, a.outlier_indices))


class TestOutputContracts:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_scores_positive_and_finite(self, seed):
        result = McCatch().fit(_planted(seed))
        assert np.isfinite(result.point_scores).all()
        assert (result.point_scores >= 0).all()
        for mc in result.microclusters:
            assert np.isfinite(mc.score) and mc.score > 0

    @given(seed=st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_microclusters_partition_outliers(self, seed):
        result = McCatch().fit(_planted(seed))
        flat = [int(i) for m in result.microclusters for i in m.indices]
        assert len(flat) == len(set(flat))
        assert sorted(flat) == sorted(map(int, result.outlier_indices))

    def test_small_dataset_edge(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [50.0, 50.0]])
        result = McCatch(n_radii=8).fit(X)
        assert result.n == 4
        assert np.isfinite(result.point_scores).all()

    def test_two_points(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        result = McCatch(n_radii=5).fit(X)
        assert result.n == 2  # degenerate but must not crash
