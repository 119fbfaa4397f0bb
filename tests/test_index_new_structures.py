"""Structure-specific tests for CoverTree, BallTree, and LAESAIndex.

Cross-index *agreement* with the brute-force oracle lives in
test_index_agreement.py; here we check the invariants each structure
promises beyond correct counts (cover-tree scales, ball-tree balance,
LAESA pivot spread and bound-filtering behaviour).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_bulk_build import check_cover_tree

from repro.index import BallTree, BruteForceIndex, CoverTree, LAESAIndex, build_index
from repro.metric.base import MetricSpace
from repro.metric.strings import levenshtein


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(7)
    X = np.vstack(
        [
            rng.normal(0, 1, (120, 3)),
            rng.normal(15, 1, (80, 3)),
            rng.normal([0, 30, 0], 0.5, (40, 3)),
        ]
    )
    return MetricSpace(X)


@pytest.fixture(scope="module")
def words():
    rng = np.random.default_rng(11)
    alphabet = list("ACGT")
    seqs = ["".join(rng.choice(alphabet, size=rng.integers(3, 12))) for _ in range(60)]
    return MetricSpace(seqs, levenshtein)


class TestCoverTree:
    def test_covering_invariant(self, blobs):
        """Every node's members lie within its covering radius."""
        flat = CoverTree(blobs, leaf_size=4).flat
        for i in range(flat.n_nodes):
            members = flat.elems[flat.elem_lo[i] : flat.elem_hi[i]]
            d = blobs.distances(int(flat.center[i]), members)
            assert d.max() <= flat.radius[i] + 1e-9

    def test_child_separation(self, blobs):
        """Sibling centers are separated by more than the child scale
        ``base**(s-1)``, and every child fits inside it (see
        :func:`test_bulk_build.check_cover_tree`)."""
        check_cover_tree(blobs, CoverTree(blobs, leaf_size=4))

    def test_nesting_first_child_keeps_center(self, blobs):
        flat = CoverTree(blobs, leaf_size=4).flat
        internal = np.flatnonzero(flat.child_lo < flat.child_hi)
        assert internal.size
        assert np.array_equal(flat.center[flat.child_lo[internal]], flat.center[internal])

    def test_sizes_partition_members(self, blobs):
        flat = CoverTree(blobs, leaf_size=4).flat
        for i in range(flat.n_nodes):
            lo, hi = int(flat.child_lo[i]), int(flat.child_hi[i])
            if lo < hi:
                assert int(flat.size[lo:hi].sum()) == flat.size[i]
        assert flat.size[0] == len(blobs)

    def test_singleton_space(self):
        space = MetricSpace(np.array([[1.0, 2.0]]))
        tree = CoverTree(space)
        assert tree.count_within([0], 0.0)[0] == 1
        assert tree.diameter_estimate() == 0.0

    def test_identical_points_become_leaf(self):
        space = MetricSpace(np.zeros((50, 2)))
        tree = CoverTree(space, leaf_size=4)
        assert tree.flat.is_leaf(0)  # radius 0 short-circuits
        assert tree.count_within([0], 0.0)[0] == 50

    def test_max_depth_and_node_count(self, blobs):
        tree = CoverTree(blobs, leaf_size=8)
        assert tree.max_depth() >= 2
        assert tree.node_count() >= 3

    def test_invalid_params(self, blobs):
        with pytest.raises(ValueError, match="leaf_size"):
            CoverTree(blobs, leaf_size=0)
        with pytest.raises(ValueError, match="base"):
            CoverTree(blobs, base=1.0)

    def test_base_three_still_correct(self, blobs):
        brute = BruteForceIndex(blobs)
        tree = CoverTree(blobs, leaf_size=4, base=3.0)
        q = np.arange(len(blobs))
        r = 0.2 * brute.diameter_estimate()
        assert np.array_equal(tree.count_within(q, r), brute.count_within(q, r))

    def test_works_on_strings(self, words):
        brute = BruteForceIndex(words)
        tree = CoverTree(words, leaf_size=4)
        q = np.arange(len(words))
        for r in (1.0, 3.0, 7.0):
            assert np.array_equal(tree.count_within(q, r), brute.count_within(q, r))


class TestBallTree:
    def test_ball_invariant(self, blobs):
        """Members of every node lie within the node's radius of its pivot."""
        flat = BallTree(blobs, leaf_size=4).flat
        for i in range(flat.n_nodes):
            members = flat.elems[flat.elem_lo[i] : flat.elem_hi[i]]
            d = blobs.distances(int(flat.center[i]), members)
            assert d.max() <= flat.radius[i] + 1e-9

    def test_split_is_binary_partition(self, blobs):
        """Children partition their parent's member slice, sizes included."""
        flat = BallTree(blobs, leaf_size=4).flat
        for i in range(flat.n_nodes):
            if flat.is_leaf(i):
                continue
            left, right = int(flat.child_lo[i]), int(flat.child_lo[i]) + 1
            assert int(flat.child_hi[i]) - int(flat.child_lo[i]) == 2
            assert flat.size[left] + flat.size[right] == flat.size[i]
            assert flat.elem_lo[left] == flat.elem_lo[i]
            assert flat.elem_hi[left] == flat.elem_lo[right]
            assert flat.elem_hi[right] == flat.elem_hi[i]

    def test_leaf_sizes_respect_cap_or_ties(self, blobs):
        tree = BallTree(blobs, leaf_size=8)
        assert all(s >= 1 for s in tree.leaf_sizes())
        assert sum(tree.leaf_sizes()) == len(blobs)

    def test_permutation_covers_all_elements(self, blobs):
        flat = BallTree(blobs, leaf_size=4).flat
        assert sorted(flat.elems.tolist()) == list(range(len(blobs)))

    def test_duplicates_fall_back_to_leaf(self):
        space = MetricSpace(np.ones((30, 2)))
        tree = BallTree(space, leaf_size=2)
        assert tree.flat.n_nodes == 1 and tree.flat.is_leaf(0)  # radius 0 short-circuits
        assert tree.count_within([0], 0.0)[0] == 30

    def test_invalid_leaf_size(self, blobs):
        with pytest.raises(ValueError, match="leaf_size"):
            BallTree(blobs, leaf_size=0)

    def test_works_on_strings(self, words):
        brute = BruteForceIndex(words)
        tree = BallTree(words, leaf_size=4)
        q = np.arange(len(words))
        for r in (1.0, 2.0, 5.0):
            assert np.array_equal(tree.count_within(q, r), brute.count_within(q, r))


class TestLAESA:
    def test_pivots_are_spread(self, blobs):
        idx = LAESAIndex(blobs, n_pivots=5)
        assert idx.pivots.size == 5
        # Greedy farthest-point pivots are pairwise distinct elements.
        assert len(set(int(p) for p in idx.pivots)) == 5

    def test_pivot_count_capped_at_n(self):
        space = MetricSpace(np.random.default_rng(0).normal(size=(6, 2)))
        idx = LAESAIndex(space, n_pivots=100)
        assert idx.pivots.size <= 6

    def test_duplicate_data_stops_pivot_selection(self):
        space = MetricSpace(np.zeros((10, 2)))
        idx = LAESAIndex(space, n_pivots=4)
        assert idx.pivots.size == 1  # all farther candidates coincide

    def test_bounds_decide_most_elements(self, blobs):
        """On clustered data the pivot bounds should resolve the bulk of
        the elements without metric evaluations."""
        idx = LAESAIndex(blobs, n_pivots=8)
        stats = idx.filtering_stats(0, radius=3.0)
        n = len(blobs)
        assert stats["excluded"] + stats["included"] + stats["evaluated"] == n
        assert stats["evaluated"] < n  # bounds did some work

    def test_out_of_dataset_query_distances(self, blobs):
        idx = LAESAIndex(blobs, n_pivots=4)
        # Query by an id not indexed: restrict the index to half the space
        half = np.arange(0, len(blobs), 2)
        sub = LAESAIndex(blobs, half, n_pivots=4)
        brute = BruteForceIndex(blobs, half)
        queries = np.arange(1, len(blobs), 2)  # none of these are indexed
        r = 2.5
        assert np.array_equal(sub.count_within(queries, r), brute.count_within(queries, r))

    def test_invalid_pivot_count(self, blobs):
        with pytest.raises(ValueError, match="n_pivots"):
            LAESAIndex(blobs, n_pivots=0)

    def test_works_on_strings(self, words):
        brute = BruteForceIndex(words)
        idx = LAESAIndex(words, n_pivots=6)
        q = np.arange(len(words))
        for r in (1.0, 4.0):
            assert np.array_equal(idx.count_within(q, r), brute.count_within(q, r))


class TestFactoryIntegration:
    @pytest.mark.parametrize("kind,cls", [
        ("covertree", CoverTree),
        ("balltree", BallTree),
        ("laesa", LAESAIndex),
    ])
    def test_factory_builds_new_kinds(self, blobs, kind, cls):
        assert isinstance(build_index(blobs, kind=kind), cls)

    @pytest.mark.parametrize("kind", ["covertree", "balltree", "laesa"])
    def test_mccatch_runs_with_new_indexes(self, kind):
        from repro import McCatch

        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (500, 2)), [[8.0, 8.0], [8.1, 8.0]]])
        result = McCatch(index=kind).fit(X)
        # The planted pair must be gelled into one nonsingleton mc.  Its
        # exact rank may shift between index kinds (the diameter estimate,
        # and so the radius ladder, differs slightly), but membership and
        # grouping are invariant.
        pair = [m for m in result.microclusters if set(m.indices) == {500, 501}]
        assert len(pair) == 1
        assert pair[0].cardinality == 2
        assert pair[0].bridge_length > 1.0


class TestPropertyBased:
    @given(seed=st.integers(0, 500), n=st.integers(5, 60), leaf=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_covertree_counts_match_brute(self, seed, n, leaf):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2)) * rng.uniform(0.1, 20)
        space = MetricSpace(X)
        brute = BruteForceIndex(space)
        r = 0.3 * max(brute.diameter_estimate(), 1e-9)
        tree = CoverTree(space, leaf_size=leaf)
        q = np.arange(n)
        assert np.array_equal(tree.count_within(q, r), brute.count_within(q, r))

    @given(seed=st.integers(0, 500), n=st.integers(5, 60), k=st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_laesa_counts_match_brute(self, seed, n, k):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        space = MetricSpace(X)
        brute = BruteForceIndex(space)
        r = float(rng.uniform(0.1, 3.0))
        idx = LAESAIndex(space, n_pivots=k)
        q = np.arange(n)
        assert np.array_equal(idx.count_within(q, r), brute.count_within(q, r))

    @given(seed=st.integers(0, 500), n=st.integers(5, 60))
    @settings(max_examples=25, deadline=None)
    def test_balltree_counts_match_brute(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 2))
        space = MetricSpace(X)
        brute = BruteForceIndex(space)
        r = float(rng.uniform(0.05, 2.5))
        tree = BallTree(space, leaf_size=4)
        q = np.arange(n)
        assert np.array_equal(tree.count_within(q, r), brute.count_within(q, r))
