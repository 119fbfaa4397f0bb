"""Differential correctness of the level-synchronous walk.

The level walk's contract is bit-identity with the brute-force oracle
(:class:`~repro.index.bruteforce.BruteForceIndex`) for every flat tree
family, on vector, string, and tree data, including the regression
class the flat-tree tests pin (radius 0 with duplicates, radii tying
exact pairwise distances).  On top of that sit the frontier slicing
every walk does (a frontier wider than ``_LEVEL_CHUNK`` entries is cut
into pieces, each walked to completion, and the pieces must sum to the
oracle's matrix for any piece size) and query sharding through the
executor, the engine, and McCatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_flat_trees import boundary_radii, brute, unpicklable

from repro import McCatch
from repro.api import make_estimator
from repro.datasets import make_last_names
from repro.engine import BatchQueryEngine, ShardedWalkExecutor
from repro.index import (
    BallTree,
    CoverTree,
    MTree,
    SlimTree,
    VPTree,
)
from repro.index import base
from repro.index.base import count_walk, level_count_walk
from repro.index.ckernel import ENV_DISABLE, compiled_count_walk, kernel_available
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
    def test_walk_attribute_switches_implementation(self, cls, vspace, monkeypatch):
        """Trees carry no walk attribute any more: ``REPRO_NO_CKERNEL``,
        read on every call, switches the implementation under the same
        tree, and both answers equal brute force."""
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        tree = cls(vspace)
        assert not hasattr(tree, "walk")
        expected = brute(vspace, radii)
        assert np.array_equal(tree.count_within_many(q, radii), expected)
        monkeypatch.setenv(ENV_DISABLE, "1")
        assert not kernel_available()
        assert np.array_equal(tree.count_within_many(q, radii), expected)

    def test_both_walks_collect_comparable_stats(self, vspace):
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        flat = VPTree(vspace).flat
        walks = [level_count_walk]
        if kernel_available():
            walks.append(compiled_count_walk)
        for walk in walks:
            stats: dict = {}
            assert np.array_equal(
                walk(vspace, q, radii, flat, stats=stats), brute(vspace, radii)
            )
            # Both walks report steps (level steps, or kernel calls),
            # entries (frontier entries, or node visits) and distance
            # dispatches under the same keys.
            for key in ("steps", "entries", "distance_calls"):
                assert stats[key] > 0
            if walk is level_count_walk:
                assert stats["searchsorted_calls"] > 0 and stats["scatter_calls"] > 0
            else:  # one kernel call per radius, scanned members settled in C
                assert stats["steps"] == radii.size
                assert 0 < stats["leaf_entries_filtered"] <= stats["leaf_entries_total"]

    def test_walk_kwarg_validated(self, vspace):
        """No tree and no walk entry point takes a walk selector."""
        for walk in ("recursive", "stack", "level"):
            with pytest.raises(TypeError, match="walk"):
                VPTree(vspace, walk=walk)
            with pytest.raises(TypeError, match="walk"):
                count_walk(
                    vspace, np.arange(3), np.array([1.0]), VPTree(vspace).flat,
                    walk=walk,
                )


class TestFrontierSplitting:
    """A frontier sliced into pieces of at most ``_LEVEL_CHUNK`` entries,
    each walked to completion, sums to the serial matrix: scatters are
    commuting integer adds.  The default chunk (2**19 entries) is never
    reached on test-sized data, so these tests shrink it to ``pieces``."""

    @pytest.mark.parametrize("pieces", WORKER_COUNTS)
    @pytest.mark.parametrize("fixture", SPACES)
    def test_piece_count_invariance(self, pieces, fixture, request, monkeypatch):
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        flat = VPTree(space).flat
        monkeypatch.setattr(base, "_LEVEL_CHUNK", pieces)
        assert np.array_equal(level_count_walk(space, q, radii, flat), brute(space, radii))

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_every_family(self, cls, vspace, monkeypatch):
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        flat = cls(vspace).flat
        monkeypatch.setattr(base, "_LEVEL_CHUNK", 5)
        assert np.array_equal(level_count_walk(vspace, q, radii, flat), brute(vspace, radii))

    def test_pieces_cover_disjoint_nodes(self, vspace, monkeypatch):
        """Slicing neither drops nor repeats frontier entries: one-entry
        pieces step once per entry and process exactly the entries of
        the unsliced walk."""
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        flat = BallTree(vspace).flat
        whole: dict = {}
        level_count_walk(vspace, q, radii, flat, stats=whole)
        monkeypatch.setattr(base, "_LEVEL_CHUNK", 1)
        sliced: dict = {}
        counts = level_count_walk(vspace, q, radii, flat, stats=sliced)
        assert np.array_equal(counts, brute(vspace, radii))
        assert sliced["entries"] == whole["entries"]
        assert sliced["steps"] == sliced["entries"] > whole["steps"]

    def test_deep_open_finishes_walk(self, vspace):
        """A chunk wider than every frontier leaves the walk unsliced:
        one step per depth, never more steps than the tree is deep."""
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        flat = VPTree(vspace).flat
        stats: dict = {}
        counts = level_count_walk(vspace, q, radii, flat, stats=stats)
        assert np.array_equal(counts, brute(vspace, radii))
        assert stats["steps"] <= flat.max_depth()


@pytest.mark.usefixtures("shard_small_inputs")
class TestTreeSharding:
    """Query sharding through the executor, engine, and McCatch (the
    class name predates the removal of the tree-axis sharding; every
    sharded walk now splits the query set, on the pool the space
    selects)."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("fixture", SPACES)
    def test_thread_backend_bit_identical(self, workers, fixture, request):
        space = request.getfixturevalue(fixture)
        if not space.is_vector:
            space = unpicklable(space)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        ex = ShardedWalkExecutor(VPTree(space), workers=workers)
        assert ex.backend == "thread"
        assert np.array_equal(ex.count_within_many(q, radii), brute(space, radii))

    @pytest.mark.parametrize("fixture", ["sspace", "tspace"])
    def test_process_backend_bit_identical(self, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        with ShardedWalkExecutor(VPTree(space), workers=2) as ex:
            assert ex.backend == "process"
            assert np.array_equal(ex.count_within_many(q, radii), brute(space, radii))

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_every_family_through_executor(self, cls, sspace):
        """Every family's arrays survive publication and mmap attachment:
        string data on the process pool."""
        radii = boundary_radii(sspace)
        q = np.arange(len(sspace))
        with ShardedWalkExecutor(cls(sspace), workers=2) as ex:
            assert ex.backend == "process"
            assert np.array_equal(ex.count_within_many(q, radii), brute(sspace, radii))

    def test_executor_rejects_unknown_axis(self, vspace):
        for axis in ("query", "tree", "columns"):
            with pytest.raises(TypeError, match="shard_by"):
                ShardedWalkExecutor(VPTree(vspace), workers=2, shard_by=axis)
            with pytest.raises(TypeError, match="shard_by"):
                VPTree(vspace).sharded(workers=2, shard_by=axis)
            with pytest.raises(TypeError, match="shard_by"):
                BatchQueryEngine(VPTree(vspace), mode="parallel", shard_by=axis)

    def test_engine_parallel_self_join_agrees(self, vspace):
        radii = np.unique(boundary_radii(vspace))[1:]
        tree = VPTree(vspace)
        c = 10
        reference = BatchQueryEngine(tree, mode="batched").self_join_counts(
            radii, max_cardinality=c
        )
        sharded = BatchQueryEngine(tree, mode="parallel", workers=3).self_join_counts(
            radii, max_cardinality=c
        )
        assert np.array_equal(sharded, reference)

    def test_mccatch_fit_bit_identical_to_serial(self):
        """A Levenshtein fit on the process pool equals the serial fit."""
        names, _ = make_last_names(60, 6, random_state=1)
        serial = McCatch(index="vptree").fit(names, levenshtein)
        sharded = McCatch(index="vptree", engine_mode="parallel", workers=2).fit(
            names, levenshtein
        )
        assert np.array_equal(serial.point_scores, sharded.point_scores)
        assert np.array_equal(serial.oracle.counts, sharded.oracle.counts)
        assert len(serial.microclusters) == len(sharded.microclusters)
        for a, b in zip(serial.microclusters, sharded.microclusters):
            assert np.array_equal(a.indices, b.indices)
            assert a.score == b.score

    def test_mccatch_validates_shard_by(self):
        """``shard_by`` is gone from McCatch and from the spec registry."""
        with pytest.raises(TypeError, match="shard_by"):
            McCatch(shard_by="tree", engine_mode="parallel", workers=2)
        with pytest.raises(TypeError, match="shard_by"):
            McCatch(shard_by="query")
        with pytest.raises(ValueError, match="unknown parameter 'shard_by'"):
            make_estimator("mccatch?engine=parallel&workers=2&shard_by=tree")

    def test_cli_detect_shard_by_tree(self, tmp_path, capsys):
        """``--shard-by`` is gone from ``repro detect`` and ``repro fit``."""
        from repro.cli import main

        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (80, 2)), [[9.0, 9.0]]])
        path = tmp_path / "data.csv"
        np.savetxt(path, X, delimiter=",")
        for command in ("detect", "fit"):
            with pytest.raises(SystemExit) as exc:
                main([command, str(path), "--workers", "2", "--shard-by", "tree"])
            assert exc.value.code == 2  # argparse: unrecognized arguments


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
