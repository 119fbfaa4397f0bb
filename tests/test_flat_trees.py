"""The flat array-backed trees: counts pinned to brute force, and their
structural invariants.

Brute force is the one oracle: ``count_within_many`` / ``count_within``
over :class:`~repro.index.base.FlatTree` storage must agree bit for bit
with :class:`~repro.index.bruteforce.BruteForceIndex` for every flat
family, under both walks called directly (``level`` everywhere, the
compiled kernel on vector data), on full and subset indexes, sharded
across workers, on vector, string, and tree data — including the
regression class: radius 0 with duplicate points, radii that tie exact
pairwise distances, and negative radii.
"""

import numpy as np
import pytest

from repro.index import (
    BallTree,
    BruteForceIndex,
    CoverTree,
    FlatTree,
    MTree,
    SlimTree,
    VPTree,
)
from repro.engine import ShardedWalkExecutor
from repro.index.base import concat_ranges, level_count_walk
from repro.index.ckernel import ENV_DISABLE, compiled_count_walk, kernel_available
from repro.metric.base import MetricSpace
from repro.metric.strings import levenshtein
from repro.metric.trees import LabeledTree, tree_edit_distance

FLAT_KINDS = [VPTree, BallTree, CoverTree, MTree, SlimTree]


def walks(space):
    """The walk functions this environment can run on ``space``: the
    numpy level walk always, the compiled walk on vector data where the
    kernel builds."""
    compiled = space.is_vector and kernel_available()
    return [level_count_walk] + ([compiled_count_walk] if compiled else [])


@pytest.fixture(scope="module")
def vspace():
    """Vector data with duplicates and a tight planted pair."""
    rng = np.random.default_rng(5)
    X = np.vstack(
        [
            rng.normal(0, 1, (90, 2)),
            np.zeros((6, 2)),  # exact duplicates
            [[7.0, 7.0], [7.0, 7.0], [7.2, 7.0]],  # duplicate outlier pair
        ]
    )
    return MetricSpace(X)


@pytest.fixture(scope="module")
def sspace():
    rng = np.random.default_rng(9)
    alphabet = list("ABCD")
    words = ["".join(rng.choice(alphabet, size=rng.integers(1, 8))) for _ in range(45)]
    words += ["AAAA"] * 4  # duplicates for the radius-0 class
    return MetricSpace(words, levenshtein)


@pytest.fixture(scope="module")
def tspace():
    rng = np.random.default_rng(13)

    def random_tree(depth: int) -> LabeledTree:
        label = "abcd"[int(rng.integers(4))]
        if depth == 0:
            return LabeledTree(label)
        children = [random_tree(depth - 1) for _ in range(int(rng.integers(0, 3)))]
        return LabeledTree(label, children)

    trees = [random_tree(2) for _ in range(18)]
    trees += [LabeledTree("a", [LabeledTree("b")])] * 3  # duplicates
    return MetricSpace(trees, tree_edit_distance)


def boundary_radii(space: MetricSpace) -> np.ndarray:
    """A ladder heavy on the regression class: 0, tie radii, big radii."""
    d = space.distances(0, np.arange(min(len(space), 12)))
    ties = [float(v) for v in d if v > 0][:4]
    diam = float(space.distances(0, np.arange(len(space))).max())
    ladder = [0.0, 0.0] + ties + [0.5 * diam, diam, 1.5 * diam + 1.0]
    return np.sort(np.array(ladder, dtype=np.float64))


def hard_radii(space: MetricSpace) -> np.ndarray:
    """boundary_radii plus the negative-radius regression rungs."""
    return np.sort(np.concatenate([[-1.0, -0.5], boundary_radii(space)]))


def unpicklable(space: MetricSpace) -> MetricSpace:
    """The same elements and distances behind a lambda, which cannot be
    pickled — so the sharded executor runs the space on threads."""
    metric = space.metric
    return MetricSpace(list(space.data), lambda a, b: metric(a, b))


def brute(space, radii, q=None, ids=None) -> np.ndarray:
    """The oracle's ``(q, a)`` count matrix."""
    index = BruteForceIndex(space, ids)
    return index.count_within_many(index.ids if q is None else q, radii)


SPACES = ["vspace", "sspace", "tspace"]


@pytest.mark.parametrize("cls", FLAT_KINDS)
@pytest.mark.parametrize("fixture", SPACES)
class TestFlatMatchesBruteForce:
    def test_count_within_many_bit_identical(self, cls, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = hard_radii(space)
        q = np.arange(len(space))
        expected = BruteForceIndex(space).count_within_many(q, radii)
        tree = cls(space)
        assert np.array_equal(tree.count_within_many(q, radii), expected)
        for walk in walks(space):
            got = walk(space, q, radii, tree.flat)
            assert np.array_equal(got, expected), walk.__name__

    def test_count_within_each_boundary_radius(self, cls, fixture, request):
        space = request.getfixturevalue(fixture)
        brute = BruteForceIndex(space)
        idx = cls(space)
        q = np.arange(len(space))
        for r in hard_radii(space):
            assert np.array_equal(
                idx.count_within(q, float(r)), brute.count_within(q, float(r))
            )

    def test_subset_index(self, cls, fixture, request):
        space = request.getfixturevalue(fixture)
        ids = np.arange(0, len(space), 2)
        queries = np.arange(1, len(space), 3)
        radii = hard_radii(space)
        expected = BruteForceIndex(space, ids).count_within_many(queries, radii)
        tree = cls(space, ids)
        assert np.array_equal(tree.count_within_many(queries, radii), expected)
        for walk in walks(space):
            got = walk(space, queries, radii, tree.flat)
            assert np.array_equal(got, expected), walk.__name__


@pytest.mark.usefixtures("shard_small_inputs")
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("walk", ["level", "compiled"])
@pytest.mark.parametrize("cls", FLAT_KINDS)
def test_sharded_counts_match_brute_force(cls, walk, workers, vspace, sspace, tspace,
                                          monkeypatch):
    """Query shards on the thread pool, any worker count, under each walk.

    ``REPRO_NO_CKERNEL=1`` selects the level walk ("compiled" leaves the
    environment alone, so it runs the kernel wherever it builds).  The
    object metrics are wrapped in lambdas, which cannot be pickled, so
    their shards run on threads too and the switch reaches every shard.
    """
    if walk == "level":
        monkeypatch.setenv(ENV_DISABLE, "1")
    for space in (vspace, unpicklable(sspace), unpicklable(tspace)):
        radii = hard_radii(space)
        q = np.arange(len(space))
        expected = BruteForceIndex(space).count_within_many(q, radii)
        ex = ShardedWalkExecutor(cls(space), workers=workers)
        assert ex.backend == "thread"
        assert np.array_equal(ex.count_within_many(q, radii), expected), space.is_vector


class TestFlatTreeInvariants:
    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_permutation_covers_ids(self, cls, vspace):
        flat = cls(vspace).flat
        assert sorted(flat.elems.tolist()) == list(range(len(vspace)))

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_children_contiguous_and_nested(self, cls, vspace):
        flat = cls(vspace).flat
        for i in range(flat.n_nodes):
            if flat.is_leaf(i):
                continue
            children = range(int(flat.child_lo[i]), int(flat.child_hi[i]))
            assert len(children) >= 1
            for c in children:
                assert flat.elem_lo[i] <= flat.elem_lo[c] <= flat.elem_hi[c] <= flat.elem_hi[i]

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_covering_radius_holds(self, cls, vspace):
        flat = cls(vspace).flat
        for i in range(flat.n_nodes):
            members = flat.elems[flat.elem_lo[i] : flat.elem_hi[i]]
            d = vspace.distances(int(flat.center[i]), members)
            assert d.max() <= flat.radius[i] + 1e-9

    def test_vp_vantage_held_outside_children(self, vspace):
        flat = VPTree(vspace).flat
        assert flat.vp_split
        for i in range(flat.n_nodes):
            if flat.is_leaf(i):
                continue
            # Vantage at the front of the slice; the two children split
            # the rest exactly.
            assert int(flat.elems[flat.elem_lo[i]]) == int(flat.center[i])
            inside, outside = int(flat.child_lo[i]), int(flat.child_lo[i]) + 1
            assert int(flat.child_hi[i]) - int(flat.child_lo[i]) == 2
            assert flat.elem_lo[inside] == flat.elem_lo[i] + 1
            assert flat.elem_hi[inside] == flat.elem_lo[outside]
            assert flat.elem_hi[outside] == flat.elem_hi[i]
            assert flat.size[inside] + flat.size[outside] + 1 == flat.size[i]

    def test_vp_threshold_separates_children(self, vspace):
        flat = VPTree(vspace).flat
        for i in range(flat.n_nodes):
            if flat.is_leaf(i):
                continue
            v = int(flat.center[i])
            inside, outside = int(flat.child_lo[i]), int(flat.child_lo[i]) + 1
            d_in = vspace.distances(v, flat.elems[flat.elem_lo[inside] : flat.elem_hi[inside]])
            d_out = vspace.distances(v, flat.elems[flat.elem_lo[outside] : flat.elem_hi[outside]])
            assert d_in.max() <= flat.threshold[i]
            assert d_out.min() > flat.threshold[i]

    def test_mtree_parent_distances_exact(self, vspace):
        tree = MTree(vspace, capacity=4)
        flat = tree.flat
        assert flat.d_parent is not None
        parent_of = np.full(flat.n_nodes, -1)
        for i in range(flat.n_nodes):
            for c in range(int(flat.child_lo[i]), int(flat.child_hi[i])):
                parent_of[c] = i
        for i in range(1, flat.n_nodes):
            p = parent_of[i]
            assert p >= 0
            expected = vspace.distance(int(flat.center[i]), int(flat.center[p]))
            assert flat.d_parent[i] == expected

    def test_sizes_match_slices(self, vspace):
        for cls in FLAT_KINDS:
            flat = cls(vspace).flat
            assert np.array_equal(flat.size, flat.elem_hi - flat.elem_lo)

    def test_leaf_helpers(self, vspace):
        flat = BallTree(vspace, leaf_size=8).flat
        assert sum(flat.leaf_sizes()) == len(vspace)
        assert flat.max_depth() >= 2
        first_leaf = next(i for i in range(flat.n_nodes) if flat.is_leaf(i))
        assert flat.bucket(first_leaf).size == flat.size[first_leaf]

    def test_round_trip_arrays(self, vspace):
        flat = VPTree(vspace).flat
        rebuilt = FlatTree.from_arrays(
            {k: np.asarray(v) for k, v in flat.to_arrays().items()}
        )
        assert rebuilt.vp_split == flat.vp_split
        assert np.array_equal(rebuilt.elems, flat.elems)
        assert np.array_equal(rebuilt.threshold, flat.threshold)

    def test_validation_rejects_ragged_arrays(self):
        with pytest.raises(ValueError, match="shape"):
            FlatTree(
                center=[0], threshold=[0.0, 1.0], radius=[0.0], size=[1],
                child_lo=[0], child_hi=[0], elem_lo=[0], elem_hi=[1], elems=[0],
            )


class TestSlimDownInvalidatesFreeze:
    """Slim-down after a query must drop the walk's cached leaf snapshots."""

    def test_post_slim_counts_still_exact(self, vspace):
        tree = SlimTree(vspace, capacity=5, slim_down=False)
        _ = tree.count_within_many(np.arange(5), np.array([0.5, 1.0]))  # fill caches
        assert tree.slim_down() > 0  # capacity 5 migrates a member on vspace
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        expected = BruteForceIndex(vspace).count_within_many(q, radii)
        assert np.array_equal(tree.count_within_many(q, radii), expected)


class TestDeterminism:
    def test_vptree_reproducible(self, vspace):
        t1, t2 = VPTree(vspace), VPTree(vspace)
        assert np.array_equal(t1.flat.elems, t2.flat.elems)
        assert np.array_equal(t1.flat.center, t2.flat.center)
        assert np.array_equal(t1.flat.threshold, t2.flat.threshold)


class TestConcatRanges:
    def test_matches_naive(self):
        starts = np.array([3, 10, 4, 0])
        sizes = np.array([2, 1, 4, 3])
        expected = np.concatenate([np.arange(s, s + k) for s, k in zip(starts, sizes)])
        assert np.array_equal(concat_ranges(starts, sizes), expected)

    def test_empty(self):
        assert concat_ranges(np.array([], dtype=np.intp), np.array([], dtype=np.intp)).size == 0
