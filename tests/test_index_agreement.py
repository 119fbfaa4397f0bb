"""Cross-index agreement: every tree must match the brute-force oracle.

The single most important index property: ``count_within`` and
``pairs_within`` agree exactly with exhaustive computation, for every
index kind, on vector and nondimensional data, across radii.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import (
    BallTree,
    BruteForceIndex,
    CKDTreeIndex,
    MTree,
    VPTree,
    available_index_kinds,
    build_index,
)
from repro.metric.base import MetricSpace
from repro.metric.strings import levenshtein

# Every class the factory builds, the oracle aside, so a new kind cannot
# skip these tests; ids stay the class names.
_TINY = MetricSpace(np.arange(8.0).reshape(4, 2))
VECTOR_KINDS = [type(build_index(_TINY, kind=k)) for k in available_index_kinds() if k != "brute"]
METRIC_KINDS = [cls for cls in VECTOR_KINDS if cls is not CKDTreeIndex]


@pytest.fixture(scope="module")
def vspace(small_points):
    return MetricSpace(small_points)


@pytest.fixture(scope="module")
def sspace():
    rng = np.random.default_rng(3)
    alphabet = "ABCDEF"
    words = ["".join(rng.choice(list(alphabet), size=rng.integers(2, 9))) for _ in range(40)]
    return MetricSpace(words, levenshtein)


@pytest.mark.parametrize("cls", VECTOR_KINDS)
class TestVectorAgreement:
    @pytest.mark.parametrize("radius_frac", [0.01, 0.1, 0.3, 1.0])
    def test_counts_match_bruteforce(self, cls, vspace, radius_frac):
        brute = BruteForceIndex(vspace)
        radius = radius_frac * brute.diameter_estimate()
        idx = cls(vspace)
        queries = np.arange(len(vspace))
        assert np.array_equal(idx.count_within(queries, radius),
                              brute.count_within(queries, radius))

    def test_counts_on_subset(self, cls, vspace):
        ids = np.arange(0, len(vspace), 2)
        brute = BruteForceIndex(vspace, ids)
        idx = cls(vspace, ids)
        queries = np.arange(1, len(vspace), 3)
        radius = 0.2 * brute.diameter_estimate()
        assert np.array_equal(idx.count_within(queries, radius),
                              brute.count_within(queries, radius))

    def test_pairs_match_bruteforce(self, cls, vspace):
        brute = BruteForceIndex(vspace)
        radius = 0.15 * brute.diameter_estimate()
        expected = set(brute.pairs_within(radius))
        got = set(cls(vspace).pairs_within(radius))
        assert got == expected

    def test_zero_radius_counts_self_and_duplicates(self, cls):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        idx = cls(MetricSpace(X))
        counts = idx.count_within(np.arange(4), 0.0)
        assert list(counts) == [2, 2, 1, 1]

    def test_diameter_estimate_positive_and_bounded(self, cls, vspace):
        est = cls(vspace).diameter_estimate()
        true = vspace.distance_matrix().max()
        assert est > 0
        # Estimates are within a factor 2 of the truth (ball/box bounds).
        assert 0.5 * true <= est <= 2.0 * true + 1e-9


@pytest.mark.parametrize("cls", METRIC_KINDS)
class TestMetricAgreement:
    @pytest.mark.parametrize("radius", [1.0, 3.0, 6.0])
    def test_counts_match_bruteforce(self, cls, sspace, radius):
        brute = BruteForceIndex(sspace)
        idx = cls(sspace)
        queries = np.arange(len(sspace))
        assert np.array_equal(idx.count_within(queries, radius),
                              brute.count_within(queries, radius))

    def test_pairs_match_bruteforce(self, cls, sspace):
        brute = BruteForceIndex(sspace)
        expected = set(brute.pairs_within(2.0))
        assert set(cls(sspace).pairs_within(2.0)) == expected


class TestPropertyBasedAgreement:
    # radius_frac stops short of 1.0: at radius == diameter the query
    # radius coincides *exactly* with a pairwise distance, and BLAS
    # computes the same Euclidean distance with last-ulp differences
    # depending on operand shapes (1x1 vs 1xn kernels).  Ties at the
    # last ulp of an exact boundary are outside the agreement contract;
    # every other radius agrees bit-exactly.
    @given(
        seed=st.integers(0, 1000),
        n=st.integers(5, 60),
        dim=st.integers(1, 4),
        radius_frac=st.floats(0.01, 0.97),
    )
    @settings(max_examples=30, deadline=None)
    def test_vptree_matches_brute_on_random_data(self, seed, n, dim, radius_frac):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10)
        space = MetricSpace(X)
        brute = BruteForceIndex(space)
        radius = radius_frac * max(brute.diameter_estimate(), 1e-6)
        vp = VPTree(space, leaf_size=4)
        q = np.arange(n)
        assert np.array_equal(vp.count_within(q, radius), brute.count_within(q, radius))

    @given(seed=st.integers(0, 1000), n=st.integers(5, 50))
    @settings(max_examples=20, deadline=None)
    def test_mtree_matches_brute_on_random_data(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        space = MetricSpace(X)
        brute = BruteForceIndex(space)
        radius = 0.3 * brute.diameter_estimate()
        mt = MTree(space, capacity=4)
        q = np.arange(n)
        assert np.array_equal(mt.count_within(q, radius), brute.count_within(q, radius))


class TestFactory:
    def test_auto_vector_uses_ckdtree(self, vspace):
        assert isinstance(build_index(vspace), CKDTreeIndex)

    def test_auto_metric_uses_vptree(self, sspace):
        assert isinstance(build_index(sspace), VPTree)

    def test_explicit_kind(self, vspace):
        assert isinstance(build_index(vspace, kind="balltree"), BallTree)

    def test_vector_only_kind_rejected_for_objects(self, sspace):
        with pytest.raises(TypeError, match="requires vector data"):
            build_index(sspace, kind="ckdtree")

    def test_unknown_kind(self, vspace):
        # No alias maps the kd-tree, R-tree or LAESA names onto a kind.
        for kind in ("btree", "kdtree", "rtree", "laesa"):
            with pytest.raises(ValueError, match="unknown index kind"):
                build_index(vspace, kind=kind)
