"""Differential correctness of the level-synchronous walk.

The level walk's contract is bit-identity with the brute-force oracle
(:class:`~repro.index.bruteforce.BruteForceIndex`) for every flat tree
family, on vector, string, and tree data, including the regression
class the flat-tree tests pin (radius 0 with duplicates, radii tying
exact pairwise distances).  On top of that sit the subtree-sharding
primitives: opening the top of the tree, splitting the frontier into
disjoint node ranges, and resuming each piece must sum to the oracle's
matrix for any piece count, worker count, or backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_flat_trees import boundary_radii, brute

from repro import McCatch
from repro.api import make_estimator
from repro.engine import BatchQueryEngine, ShardedWalkExecutor
from repro.index import (
    BallTree,
    CoverTree,
    MTree,
    SlimTree,
    VPTree,
)
from repro.index.base import (
    count_walk,
    level_count_walk,
    open_tree_frontier,
    split_frontier,
)
from repro.index.ckernel import compiled_count_walk, kernel_available
from repro.io.indexes import load_index, save_index
from repro.metric.base import MetricSpace
from repro.metric.strings import levenshtein
from repro.metric.trees import LabeledTree, tree_edit_distance

FLAT_KINDS = [VPTree, BallTree, CoverTree, MTree, SlimTree]
WORKER_COUNTS = [1, 2, 3, 7]


@pytest.fixture(scope="module")
def vspace():
    """Vector data with duplicates and a tight planted pair."""
    rng = np.random.default_rng(5)
    X = np.vstack(
        [
            rng.normal(0, 1, (70, 2)),
            np.zeros((5, 2)),  # exact duplicates
            [[7.0, 7.0], [7.0, 7.0], [7.2, 7.0]],  # duplicate outlier pair
        ]
    )
    return MetricSpace(X)


@pytest.fixture(scope="module")
def sspace():
    rng = np.random.default_rng(9)
    alphabet = list("ABCD")
    words = ["".join(rng.choice(alphabet, size=rng.integers(1, 8))) for _ in range(30)]
    words += ["AAAA"] * 3  # duplicates for the radius-0 class
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

    trees = [random_tree(2) for _ in range(12)]
    trees += [LabeledTree("a", [LabeledTree("b")])] * 2  # duplicates
    return MetricSpace(trees, tree_edit_distance)


SPACES = ["vspace", "sspace", "tspace"]


class TestLevelMatchesStack:
    """The level walk equals brute force bit for bit (the class name
    predates the removal of the node-major stack walk; brute force is
    the one oracle)."""

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    @pytest.mark.parametrize("fixture", SPACES)
    def test_all_families_all_spaces(self, cls, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        flat = cls(space).flat
        assert np.array_equal(
            level_count_walk(space, q, radii, flat), brute(space, radii)
        )

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_subset_queries(self, cls, vspace):
        radii = boundary_radii(vspace)
        q = np.arange(1, len(vspace), 3)
        ids = np.arange(0, len(vspace), 2)
        flat = cls(vspace, ids).flat
        assert np.array_equal(
            level_count_walk(vspace, q, radii, flat), brute(vspace, radii, q, ids)
        )

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_walk_attribute_switches_implementation(self, cls, vspace):
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        level = cls(vspace, walk="level")
        compiled = cls(vspace, walk="compiled")
        # The unqualified default is the environment-resolved "auto".
        assert cls(vspace).walk == "auto"
        assert level.walk == "level" and compiled.walk == "compiled"
        expected = brute(vspace, radii)
        assert np.array_equal(level.count_within_many(q, radii), expected)
        assert np.array_equal(compiled.count_within_many(q, radii), expected)

    def test_both_walks_collect_comparable_stats(self, vspace):
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        flat = VPTree(vspace).flat
        walks = [level_count_walk]
        if kernel_available():
            walks.append(compiled_count_walk)
        collected = []
        for walk in walks:
            stats: dict = {}
            assert np.array_equal(
                walk(vspace, q, radii, flat, stats=stats), brute(vspace, radii)
            )
            for key in ("steps", "entries", "distance_calls",
                        "searchsorted_calls", "scatter_calls"):
                assert stats[key] > 0
            collected.append(stats)
        # The compiled walk mirrors the level walk's frontier step for
        # step: one step per depth, the same entries on each.
        for stats in collected[1:]:
            assert stats["steps"] == collected[0]["steps"]
            assert stats["entries"] == collected[0]["entries"]

    def test_walk_kwarg_validated(self, vspace):
        for walk in ("recursive", "stack"):
            with pytest.raises(ValueError, match="unknown walk"):
                VPTree(vspace, walk=walk)
            with pytest.raises(ValueError, match="unknown walk"):
                count_walk(
                    vspace, np.arange(3), np.array([1.0]), VPTree(vspace).flat,
                    walk=walk,
                )


class TestFrontierSplitting:
    """open + split + per-piece resume sums to the serial matrix."""

    @pytest.mark.parametrize("pieces", WORKER_COUNTS)
    @pytest.mark.parametrize("fixture", SPACES)
    def test_piece_count_invariance(self, pieces, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        flat = VPTree(space).flat
        expected = brute(space, radii)
        partial, frontier = open_tree_frontier(
            space, q, radii, flat, min_nodes=pieces
        )
        for piece in split_frontier(frontier, pieces):
            partial += level_count_walk(space, q, radii, flat, frontier=piece)
        assert np.array_equal(partial, expected)

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_every_family(self, cls, vspace):
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        flat = cls(vspace).flat
        expected = brute(vspace, radii)
        partial, frontier = open_tree_frontier(vspace, q, radii, flat, min_nodes=5)
        for piece in split_frontier(frontier, 5):
            partial += level_count_walk(vspace, q, radii, flat, frontier=piece)
        assert np.array_equal(partial, expected)

    def test_pieces_cover_disjoint_nodes(self, vspace):
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        flat = BallTree(vspace).flat
        _, frontier = open_tree_frontier(vspace, q, radii, flat, min_nodes=4)
        pieces = split_frontier(frontier, 4)
        node_sets = [set(p.nodes.tolist()) for p in pieces]
        for i, left in enumerate(node_sets):
            for right in node_sets[i + 1:]:
                assert not (left & right)
        assert set().union(*node_sets) == set(frontier.nodes.tolist())

    def test_deep_open_finishes_walk(self, vspace):
        """min_nodes beyond the frontier's reach just finishes serially."""
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        flat = VPTree(vspace).flat
        partial, frontier = open_tree_frontier(
            vspace, q, radii, flat, min_nodes=10**9
        )
        assert frontier.nodes.size == 0
        assert np.array_equal(partial, brute(vspace, radii))


class TestTreeSharding:
    """shard_by="tree" through the executor, engine, and McCatch."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("fixture", SPACES)
    def test_thread_backend_bit_identical(self, workers, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        tree = VPTree(space)
        expected = brute(space, radii)
        got = ShardedWalkExecutor(
            tree, workers=workers, backend="thread", shard_by="tree"
        ).count_within_many(q, radii)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("fixture", SPACES)
    def test_process_backend_bit_identical(self, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        tree = VPTree(space)
        expected = brute(space, radii)
        with ShardedWalkExecutor(
            tree, workers=2, shards=3, backend="process", shard_by="tree"
        ) as ex:
            assert np.array_equal(ex.count_within_many(q, radii), expected)

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_every_family_through_executor(self, cls, vspace):
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        tree = cls(vspace)
        expected = brute(vspace, radii)
        got = ShardedWalkExecutor(
            tree, workers=3, backend="thread", shard_by="tree"
        ).count_within_many(q, radii)
        assert np.array_equal(got, expected)

    def test_index_sharded_method_forwards_axis(self, vspace):
        tree = VPTree(vspace)
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        sharded = tree.sharded(workers=2, shards=4, shard_by="tree")
        assert sharded.shard_by == "tree"
        assert np.array_equal(
            sharded.count_within_many(q, radii), tree.count_within_many(q, radii)
        )

    def test_executor_rejects_unknown_axis(self, vspace):
        with pytest.raises(ValueError, match="shard_by"):
            ShardedWalkExecutor(VPTree(vspace), workers=2, shard_by="columns")

    def test_engine_parallel_self_join_agrees(self, vspace):
        radii = np.unique(boundary_radii(vspace))[1:]
        tree = VPTree(vspace)
        c = 10
        reference = BatchQueryEngine(tree, mode="batched").self_join_counts(
            radii, max_cardinality=c
        )
        tree_sharded = BatchQueryEngine(
            tree, mode="parallel", workers=3, shard_by="tree"
        ).self_join_counts(radii, max_cardinality=c)
        assert np.array_equal(tree_sharded, reference)

    def test_mccatch_fit_bit_identical_to_serial(self, blob_with_mc):
        X, _ = blob_with_mc
        serial = McCatch(index="vptree").fit(X)
        sharded = McCatch(
            index="vptree", engine_mode="parallel", workers=2, shard_by="tree"
        ).fit(X)
        assert np.array_equal(serial.point_scores, sharded.point_scores)
        assert len(serial.microclusters) == len(sharded.microclusters)
        for a, b in zip(serial.microclusters, sharded.microclusters):
            assert np.array_equal(a.indices, b.indices)
            assert a.score == b.score

    def test_mccatch_validates_shard_by(self):
        with pytest.raises(ValueError, match="shard_by"):
            McCatch(shard_by="columns", engine_mode="parallel", workers=2)
        with pytest.raises(ValueError, match="shard_by"):
            McCatch(shard_by="tree")  # engine_mode is not parallel

    def test_spec_surfaces_shard_by(self):
        estimator = make_estimator("mccatch?engine=parallel&workers=2&shard_by=tree")
        assert estimator.detector.shard_by == "tree"
        assert "shard_by=tree" in estimator.spec
        assert make_estimator(estimator.spec).spec == estimator.spec
        # The default sharding axis canonicalizes away.
        assert "shard_by" not in make_estimator("mccatch?engine=parallel&workers=2").spec

    def test_cli_detect_shard_by_tree(self, tmp_path, capsys):
        from repro.cli import main

        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (80, 2)), [[9.0, 9.0]]])
        path = tmp_path / "data.csv"
        np.savetxt(path, X, delimiter=",")
        assert main(["detect", str(path), "--workers", "2", "--shard-by", "tree"]) == 0
        assert "microclusters" in capsys.readouterr().out

    def test_cli_shard_by_requires_workers(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "data.csv"
        np.savetxt(path, np.zeros((4, 2)), delimiter=",")
        with pytest.raises(SystemExit, match="--workers"):
            main(["detect", str(path), "--shard-by", "tree"])


class TestLeafParentDistances:
    """The M-tree d_elem arrays and the leaf-scatter filter they feed."""

    @pytest.mark.parametrize("cls", [MTree, SlimTree])
    @pytest.mark.parametrize("fixture", SPACES)
    def test_d_elem_exact(self, cls, fixture, request):
        space = request.getfixturevalue(fixture)
        flat = cls(space, capacity=4).flat
        assert flat.d_elem is not None
        for i in range(flat.n_nodes):
            if not flat.is_leaf(i):
                continue
            members = flat.elems[flat.elem_lo[i]: flat.elem_hi[i]]
            stored = flat.d_elem[flat.elem_lo[i]: flat.elem_hi[i]]
            expected = space.distances(int(flat.center[i]), members)
            assert np.array_equal(stored, expected)

    def test_filter_skips_entries_without_changing_counts(self, sspace):
        radii = boundary_radii(sspace)
        q = np.arange(len(sspace))
        flat = MTree(sspace, capacity=4).flat
        stats: dict = {}
        counts = level_count_walk(sspace, q, radii, flat, stats=stats)
        assert stats["leaf_entries_filtered"] > 0
        assert stats["leaf_entries_filtered"] < stats["leaf_entries_total"]
        assert np.array_equal(counts, brute(sspace, radii))

    def test_euclidean_rect_kernel_filters_pairs(self, vspace):
        """Euclidean vector spaces route single-rung leaf entries
        through the float32 rect kernel: most pairs decide against the
        margin-bracketed squared radius without an exact float64
        evaluation, and the counts stay bit-identical to brute
        force."""
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        flat = MTree(vspace, capacity=4).flat
        stats: dict = {}
        counts = level_count_walk(vspace, q, radii, flat, stats=stats)
        assert stats["leaf_entries_total"] > 0
        assert stats["leaf_entries_filtered"] > 0
        assert stats["leaf_entries_filtered"] <= stats["leaf_entries_total"]
        assert np.array_equal(counts, brute(vspace, radii))

    def test_validation_rejects_misshapen_d_elem(self, vspace):
        from repro.index.base import FlatTree

        with pytest.raises(ValueError, match="d_elem"):
            FlatTree(
                center=[0], threshold=[0.0], radius=[0.0], size=[1],
                child_lo=[0], child_hi=[0], elem_lo=[0], elem_hi=[1], elems=[0],
                d_elem=[0.0, 1.0],
            )

    def test_persistence_round_trip(self, sspace, tmp_path):
        tree = MTree(sspace, capacity=4)
        path = save_index(tree, tmp_path / "mtree.npz")
        loaded = load_index(path, sspace)
        assert loaded.flat.d_elem is not None
        assert np.array_equal(loaded.flat.d_elem, tree.flat.d_elem)
        radii = boundary_radii(sspace)
        q = np.arange(len(sspace))
        assert np.array_equal(
            loaded.count_within_many(q, radii), tree.count_within_many(q, radii)
        )


class TestMaxDepth:
    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_matches_naive_recursion(self, cls, vspace):
        flat = cls(vspace).flat

        def naive(i: int) -> int:
            if flat.is_leaf(i):
                return 1
            return 1 + max(
                naive(c) for c in range(int(flat.child_lo[i]), int(flat.child_hi[i]))
            )

        assert flat.max_depth() == naive(0)
