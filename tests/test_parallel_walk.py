"""Shard/worker invariance of the parallel sharded frontier walks.

The parallel layer's contract is exactness: for any shard count,
worker count, and backend, the stacked per-shard count matrices must
be bit-identical to one serial walk — on
vector, string, and tree data, including the regression class the
flat-tree tests pin (radius 0 with duplicates, radii tying exact
pairwise distances).  Process workers must *attach* to a published
mmap artifact, not materialize private copies.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from test_flat_trees import boundary_radii

from repro import McCatch
from repro.api import make_estimator
from repro.engine import BatchQueryEngine, ShardedWalkExecutor, supports_sharding
from repro.engine.parallel import _get_pool, attachment_report
from repro.index import (
    BallTree,
    BruteForceIndex,
    CoverTree,
    MTree,
    SlimTree,
    VPTree,
)
from repro.io.indexes import save_index
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
            rng.normal(0, 1, (60, 2)),
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


class TestWorkerShardInvariance:
    """Counts are bit-identical for every worker/shard configuration."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("fixture", SPACES)
    def test_worker_count_invariance(self, workers, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        tree = VPTree(space)
        expected = tree.count_within_many(q, radii)
        got = ShardedWalkExecutor(
            tree, workers=workers, backend="thread"
        ).count_within_many(q, radii)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_every_flat_index_kind(self, cls, vspace):
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        tree = cls(vspace)
        expected = tree.count_within_many(q, radii)
        got = ShardedWalkExecutor(
            tree, workers=3, backend="thread"
        ).count_within_many(q, radii)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shards", [1, 2, 5, 17, 1000])
    def test_shard_count_invariance(self, shards, vspace):
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        tree = BallTree(vspace)
        expected = tree.count_within_many(q, radii)
        got = ShardedWalkExecutor(
            tree, workers=2, shards=shards, backend="thread"
        ).count_within_many(q, radii)
        assert np.array_equal(got, expected)

    def test_subset_queries_and_single_radius(self, vspace):
        tree = VPTree(vspace)
        q = np.arange(1, len(vspace), 3)
        ex = ShardedWalkExecutor(tree, workers=2, shards=3, backend="thread")
        for r in boundary_radii(vspace):
            assert np.array_equal(
                ex.count_within(q, float(r)), tree.count_within(q, float(r))
            )

    def test_index_sharded_method(self, vspace):
        tree = VPTree(vspace)
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        got = tree.sharded(workers=2, shards=4).count_within_many(q, radii)
        assert np.array_equal(got, tree.count_within_many(q, radii))


class TestProcessBackend:
    """Process workers attach via mmap and still count bit-identically."""

    @pytest.mark.parametrize("fixture", SPACES)
    def test_bit_identical(self, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        tree = VPTree(space)
        expected = tree.count_within_many(q, radii)
        with ShardedWalkExecutor(
            tree, workers=2, shards=3, backend="process"
        ) as ex:
            assert np.array_equal(ex.count_within_many(q, radii), expected)

    def test_auto_backend_picks_process_for_object_metrics(self, sspace, vspace):
        assert ShardedWalkExecutor(VPTree(sspace), workers=2).backend == "process"
        assert ShardedWalkExecutor(VPTree(vspace), workers=2).backend == "thread"

    def test_workers_attach_to_mmap_artifact(self, vspace):
        """The walk arrays a worker sees are views of the published
        archive — attached through the page cache, not materialized."""
        tree = VPTree(vspace)
        with ShardedWalkExecutor(tree, workers=2, backend="process") as ex:
            report = (
                _get_pool("process", 2)
                .submit(attachment_report, str(ex.artifact))
                .result()
            )
        assert report["pid"] != os.getpid()
        assert report["tree_mmap"] is True
        assert report["data_mmap"] is True
        assert report["n"] == len(vspace)

    def test_attaches_to_registry_published_artifact(self, vspace, tmp_path):
        """An artifact published ahead of time (registry-style) is
        attached as-is; the executor writes nothing of its own."""
        tree = VPTree(vspace)
        published = save_index(tree, tmp_path / "index.npz")
        ex = ShardedWalkExecutor(
            tree, workers=2, shards=3, backend="process", artifact=published
        )
        q = np.arange(len(vspace))
        radii = boundary_radii(vspace)
        assert np.array_equal(
            ex.count_within_many(q, radii), tree.count_within_many(q, radii)
        )
        assert ex.artifact == published
        assert ex._owned_artifact is None  # nothing self-published
        report = (
            _get_pool("process", 2)
            .submit(attachment_report, str(published))
            .result()
        )
        assert report["tree_mmap"] is True

    def test_object_space_artifact_carries_no_data(self, sspace, tmp_path):
        """Object spaces ship structure only; elements travel once as
        the space payload, and the worker rebuilds the same counts."""
        tree = VPTree(sspace)
        ex = ShardedWalkExecutor(tree, workers=2, shards=2, backend="process")
        q = np.arange(len(sspace))
        radii = boundary_radii(sspace)
        assert np.array_equal(
            ex.count_within_many(q, radii), tree.count_within_many(q, radii)
        )
        items, metric = ex._space_payload()
        assert items == list(sspace.data) and metric is levenshtein
        ex.close()


class TestEngineParallelMode:
    def test_self_join_counts_all_modes_agree(self, vspace):
        radii = boundary_radii(vspace)
        radii = np.unique(radii)[1:]  # strictly increasing, as SELFJOINC needs
        tree = VPTree(vspace)
        c = 10
        reference = BatchQueryEngine(tree, mode="per_point").self_join_counts(
            radii, max_cardinality=c
        )
        batched = BatchQueryEngine(tree, mode="batched").self_join_counts(
            radii, max_cardinality=c
        )
        parallel = BatchQueryEngine(tree, mode="parallel", workers=3).self_join_counts(
            radii, max_cardinality=c
        )
        assert np.array_equal(batched, reference)
        assert np.array_equal(parallel, reference)

    def test_first_nonempty_radius_agrees(self, vspace):
        radii = np.unique(boundary_radii(vspace))
        tree = VPTree(vspace, ids=np.arange(0, len(vspace), 2))
        queries = np.arange(1, len(vspace), 2)
        reference = BatchQueryEngine(tree, mode="per_point").first_nonempty_radius(
            queries, radii
        )
        parallel = BatchQueryEngine(
            tree, mode="parallel", workers=2
        ).first_nonempty_radius(queries, radii)
        assert np.array_equal(parallel, reference)

    def test_parallel_falls_back_without_flat_storage(self, vspace):
        brute = BruteForceIndex(vspace)
        assert not supports_sharding(brute)
        engine = BatchQueryEngine(brute, mode="parallel", workers=2)
        assert engine._sharded is None  # serial batched fallback
        radii = np.unique(boundary_radii(vspace))
        assert np.array_equal(
            engine.self_join_counts(radii),
            BatchQueryEngine(brute, mode="batched").self_join_counts(radii),
        )


class TestMcCatchParallel:
    def test_fit_bit_identical_to_serial(self, blob_with_mc):
        X, _ = blob_with_mc
        serial = McCatch(index="vptree").fit(X)
        parallel = McCatch(index="vptree", engine_mode="parallel", workers=3).fit(X)
        assert np.array_equal(serial.point_scores, parallel.point_scores)
        assert len(serial.microclusters) == len(parallel.microclusters)
        for a, b in zip(serial.microclusters, parallel.microclusters):
            assert np.array_equal(a.indices, b.indices)
            assert a.score == b.score

    def test_workers_requires_parallel_mode(self):
        with pytest.raises(ValueError, match="workers"):
            McCatch(workers=4)

    def test_parallel_requires_flat_index(self, blob_with_mc):
        """A pool with nothing to share must fail loudly, not run serial
        (the Euclidean 'auto' default builds scipy's cKDTree)."""
        X, _ = blob_with_mc
        for kind in ("auto", "ckdtree", "brute"):
            with pytest.raises(ValueError, match="flat-backed"):
                McCatch(index=kind, engine_mode="parallel").fit(X)

    def test_spec_surfaces_parallel_engine(self):
        estimator = make_estimator("mccatch?engine=parallel&workers=2")
        assert estimator.detector.engine_mode == "parallel"
        assert estimator.detector.workers == 2
        # canonical round trip
        assert make_estimator(estimator.spec).spec == estimator.spec

    def test_cli_detect_workers(self, tmp_path, capsys):
        from repro.cli import main

        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (80, 2)), [[9.0, 9.0]]])
        path = tmp_path / "data.csv"
        np.savetxt(path, X, delimiter=",")
        assert main(["detect", str(path), "--workers", "2"]) == 0
        assert "microclusters" in capsys.readouterr().out


class TestExecutorValidation:
    def test_rejects_non_flat_index(self, vspace):
        with pytest.raises(TypeError, match="FlatTree"):
            ShardedWalkExecutor(BruteForceIndex(vspace))

    def test_rejects_bad_workers_and_backend(self, vspace):
        tree = VPTree(vspace)
        with pytest.raises(ValueError, match="workers"):
            ShardedWalkExecutor(tree, workers=0)
        with pytest.raises(ValueError, match="shards"):
            ShardedWalkExecutor(tree, shards=0)
        with pytest.raises(ValueError, match="backend"):
            ShardedWalkExecutor(tree, backend="fibers")

    def test_thread_backend_publishes_no_artifact(self, vspace):
        ex = ShardedWalkExecutor(VPTree(vspace), workers=2, backend="thread")
        assert ex.artifact is None


class TestPairsWithinDefault:
    """The vectorized chunked default matches the naive upper triangle."""

    @pytest.mark.parametrize("fixture", SPACES)
    def test_matches_naive(self, fixture, request):
        space = request.getfixturevalue(fixture)
        index = VPTree(space)  # inherits the MetricIndex default
        ids = index.ids
        for radius in (0.0, float(np.median(boundary_radii(space)))):
            expected = []
            for a in range(ids.size - 1):
                d = space.distances(int(ids[a]), ids[a + 1 :])
                for j in ids[a + 1 :][d <= radius]:
                    i = int(ids[a])
                    expected.append((min(i, int(j)), max(i, int(j))))
            assert index.pairs_within(radius) == expected

    def test_chunked_blocks_match_single_block(self, vspace):
        index = BruteForceIndex(vspace)
        radius = 1.5
        expected = index.pairs_within(radius)
        old_chunk = type(index)._CHUNK
        try:
            type(index)._CHUNK = 7  # force many partial blocks
            assert index.pairs_within(radius) == expected
        finally:
            type(index)._CHUNK = old_chunk
