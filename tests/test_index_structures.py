"""Structure-specific index tests: M-tree invariants, Slim-tree
slim-down, VP-tree determinism, base-class validation."""

import numpy as np
import pytest

from test_bulk_build import check_mtree_capacity

from repro.index import BruteForceIndex, MTree, SlimTree, VPTree
from repro.index.base import FlatTree
from repro.metric.base import MetricSpace


def _check_covering(flat: FlatTree, space) -> None:
    """Every node's members lie within its covering radius, and the
    children's sizes add up to their parent's."""
    for i in range(flat.n_nodes):
        members = flat.elems[flat.elem_lo[i] : flat.elem_hi[i]]
        d = space.distances(int(flat.center[i]), members)
        assert d.max() <= flat.radius[i] + 1e-9
        assert flat.size[i] == members.size
        lo, hi = int(flat.child_lo[i]), int(flat.child_hi[i])
        if lo < hi:
            assert int(flat.size[lo:hi].sum()) == flat.size[i]


class TestMTreeInvariants:
    @pytest.mark.parametrize("capacity", [4, 8, 16])
    def test_covering_radii_and_sizes(self, small_points, capacity):
        space = MetricSpace(small_points)
        tree = MTree(space, capacity=capacity)
        _check_covering(tree.flat, space)

    def test_all_elements_reachable(self, small_points):
        space = MetricSpace(small_points)
        tree = MTree(space, capacity=4)
        assert sorted(tree.flat.elems.tolist()) == list(range(len(space)))

    def test_node_capacity_respected(self, small_points):
        space = MetricSpace(small_points)
        check_mtree_capacity(MTree(space, capacity=5))

    def test_height_grows_with_data(self):
        rng = np.random.default_rng(0)
        small = MTree(MetricSpace(rng.normal(size=(10, 2))), capacity=4)
        large = MTree(MetricSpace(rng.normal(size=(300, 2))), capacity=4)
        assert large.height() > small.height()

    def test_distance_calls_tracked(self, small_points):
        tree = MTree(MetricSpace(small_points), capacity=8)
        # the bulk-load measures every element against the root center
        assert tree.distance_calls >= len(small_points)
        before = tree.distance_calls
        tree.diameter_estimate()
        assert tree.distance_calls > before

    def test_capacity_validation(self, small_points):
        with pytest.raises(ValueError, match="capacity"):
            MTree(MetricSpace(small_points), capacity=2)


class TestSlimTree:
    def test_covering_invariant_after_slim_down(self, small_points):
        space = MetricSpace(small_points)
        tree = SlimTree(space, capacity=4, slim_down=True)
        _check_covering(tree.flat, space)
        check_mtree_capacity(tree)

    def test_counts_still_exact_after_slim_down(self, small_points):
        space = MetricSpace(small_points)
        tree = SlimTree(space, capacity=4, slim_down=True)
        brute = BruteForceIndex(space)
        q = np.arange(len(space))
        r = 0.25 * brute.diameter_estimate()
        assert np.array_equal(tree.count_within(q, r), brute.count_within(q, r))

    def test_fat_factor_in_unit_interval(self, small_points):
        tree = SlimTree(MetricSpace(small_points), capacity=4)
        assert 0.0 <= tree.fat_factor() <= 1.0

    def test_slim_down_never_loses_points(self, small_points):
        space = MetricSpace(small_points)
        tree = SlimTree(space, capacity=4, slim_down=True)
        assert int(tree.count_within(np.array([0]), 1e9)[0]) == len(space)


class TestVPTree:
    def test_deterministic_by_default(self, small_points):
        space = MetricSpace(small_points)
        t1 = VPTree(space)
        t2 = VPTree(space)
        q = np.arange(len(space))
        assert np.array_equal(t1.count_within(q, 2.0), t2.count_within(q, 2.0))

    def test_single_element(self):
        space = MetricSpace(np.array([[1.0, 2.0]]))
        tree = VPTree(space)
        assert tree.diameter_estimate() == 0.0
        assert list(tree.count_within(np.array([0]), 0.5)) == [1]

    def test_leaf_size_validation(self, small_points):
        with pytest.raises(ValueError, match="leaf_size"):
            VPTree(MetricSpace(small_points), leaf_size=0)

    def test_duplicate_heavy_data(self):
        # Degenerate medians (many ties) must not break construction.
        X = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]]), 25, axis=0)
        space = MetricSpace(X)
        tree = VPTree(space, leaf_size=4)
        counts = tree.count_within(np.arange(50), 0.1)
        assert (counts == 25).all()


class TestBase:
    def test_empty_ids_rejected(self, small_points):
        with pytest.raises(ValueError, match="zero elements"):
            BruteForceIndex(MetricSpace(small_points), np.array([], dtype=np.intp))

    def test_two_scan_diameter_reasonable(self, small_points):
        space = MetricSpace(small_points)
        est = BruteForceIndex(space).diameter_estimate()
        true = space.distance_matrix().max()
        assert 0.5 * true <= est <= true + 1e-9
