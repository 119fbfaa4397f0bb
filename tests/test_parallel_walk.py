"""Shard/worker invariance of the parallel sharded frontier walks.

The parallel layer's contract is exactness: for any shard count and
worker count, on whichever pool the space selects, the stacked
per-shard count matrices must be bit-identical to one serial walk — on
vector, string, and tree data, including the regression class the
flat-tree tests pin (radius 0 with duplicates, radii tying exact
pairwise distances).  Process workers must *attach* to a published
mmap artifact, not materialize private copies, and a metric that
cannot be pickled must not crash a fit.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from test_flat_trees import boundary_radii, unpicklable

from repro import McCatch
from repro.api import make_estimator
from repro.datasets import make_last_names
from repro.engine import BatchQueryEngine, ShardedWalkExecutor, supports_sharding
from repro.engine import parallel
from repro.engine.parallel import _get_pool, attachment_report
from repro.index import (
    BallTree,
    BruteForceIndex,
    CoverTree,
    MTree,
    SlimTree,
    VPTree,
)
from repro.metric.base import MetricSpace
from repro.metric.strings import levenshtein
from repro.metric.trees import LabeledTree, tree_edit_distance

FLAT_KINDS = [VPTree, BallTree, CoverTree, MTree, SlimTree]
WORKER_COUNTS = [1, 2, 3, 7]


@pytest.fixture(autouse=True)
def _shard_small_inputs(shard_small_inputs):
    """Every test here exercises sharding on small inputs."""


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


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    """Process pools persist across executors; stop this module's workers."""
    yield
    parallel.shutdown_pools()


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
        with ShardedWalkExecutor(tree, workers=workers) as ex:
            assert np.array_equal(ex.count_within_many(q, radii), expected)

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_every_flat_index_kind(self, cls, vspace):
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        tree = cls(vspace)
        expected = tree.count_within_many(q, radii)
        got = ShardedWalkExecutor(tree, workers=3).count_within_many(q, radii)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shards", [1, 2, 5, 17, 1000])
    def test_shard_count_invariance(self, shards, vspace, monkeypatch):
        """Any shard count: ``shards`` per worker (the module's
        ``OVERSHARD``), capped at the batch size."""
        monkeypatch.setattr(parallel, "OVERSHARD", shards)
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        tree = BallTree(vspace)
        expected = tree.count_within_many(q, radii)
        got = ShardedWalkExecutor(tree, workers=2).count_within_many(q, radii)
        assert np.array_equal(got, expected)

    def test_subset_queries_and_single_radius(self, vspace):
        tree = VPTree(vspace)
        q = np.arange(1, len(vspace), 3)
        ex = ShardedWalkExecutor(tree, workers=2)
        for r in boundary_radii(vspace):
            assert np.array_equal(
                ex.count_within(q, float(r)), tree.count_within(q, float(r))
            )

    def test_index_sharded_method(self, vspace):
        tree = VPTree(vspace)
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        got = tree.sharded(workers=2).count_within_many(q, radii)
        assert np.array_equal(got, tree.count_within_many(q, radii))


class TestProcessBackend:
    """Object spaces shard over mmap-attached worker processes and still
    count bit-identically; vector data never leaves the process."""

    @pytest.mark.parametrize("fixture", ["sspace", "tspace"])
    def test_bit_identical(self, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        tree = VPTree(space)
        expected = tree.count_within_many(q, radii)
        with ShardedWalkExecutor(tree, workers=2) as ex:
            assert ex.backend == "process"
            assert np.array_equal(ex.count_within_many(q, radii), expected)

    def test_auto_backend_picks_process_for_object_metrics(self, sspace, vspace):
        """The pool follows the space: processes for an object metric
        that pickles, threads for vector data and for a metric that
        cannot reach a worker process."""
        assert ShardedWalkExecutor(VPTree(sspace), workers=2).backend == "process"
        assert ShardedWalkExecutor(VPTree(vspace), workers=2).backend == "thread"
        ex = ShardedWalkExecutor(VPTree(unpicklable(sspace)), workers=2)
        assert ex.backend == "thread" and ex.artifact is None

    def test_workers_attach_to_mmap_artifact(self, sspace):
        """The walk arrays a worker sees are views of the published
        archive — attached through the page cache, not materialized."""
        tree = VPTree(sspace)
        with ShardedWalkExecutor(tree, workers=2) as ex:
            report = (
                _get_pool("process", 2)
                .submit(attachment_report, str(ex.artifact), list(sspace.data), levenshtein)
                .result()
            )
        assert report["pid"] != os.getpid()
        assert report["tree_mmap"] is True
        assert report["n"] == len(sspace)

    def test_object_space_artifact_carries_no_data(self, sspace):
        """Object spaces publish structure only; the elements travel
        with each task, and the worker rebuilds the same counts."""
        tree = VPTree(sspace)
        with ShardedWalkExecutor(tree, workers=2) as ex:
            q = np.arange(len(sspace))
            radii = boundary_radii(sspace)
            assert np.array_equal(
                ex.count_within_many(q, radii), tree.count_within_many(q, radii)
            )
            with np.load(ex.artifact) as archive:
                assert "data" not in archive.files and "tree_center" in archive.files
            directory = ex.artifact.parent
        assert not directory.exists()  # close() removed the self-published artifact


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

    def test_unpicklable_object_metric_fit_bit_identical_to_serial(self):
        """``workers=`` stays a pure performance choice when the metric
        cannot be pickled: the fit runs on threads instead of crashing
        in the process pool's feeder."""
        names, _ = make_last_names(60, 6, random_state=0)

        def metric(a, b):
            return levenshtein(a, b)

        serial = McCatch(index="vptree").fit(names, metric)
        parallel_fit = McCatch(index="vptree", engine_mode="parallel", workers=2).fit(
            names, metric
        )
        assert np.array_equal(serial.point_scores, parallel_fit.point_scores)
        assert np.array_equal(serial.oracle.counts, parallel_fit.oracle.counts)
        assert len(serial.microclusters) == len(parallel_fit.microclusters)
        for a, b in zip(serial.microclusters, parallel_fit.microclusters):
            assert np.array_equal(a.indices, b.indices)
            assert a.score == b.score

    def test_workers_requires_parallel_mode(self):
        with pytest.raises(ValueError, match="workers"):
            McCatch(workers=4)

    def test_parallel_requires_flat_index(self, blob_with_mc, monkeypatch):
        """A pool with nothing to share must fail loudly, not run serial;
        the default index is a VP-tree, so it shards and equals the serial
        fit."""
        X, _ = blob_with_mc
        for kind in ("ckdtree", "brute"):
            with pytest.raises(ValueError, match="flat-backed"):
                McCatch(index=kind, engine_mode="parallel").fit(X)
        sharded_calls = []
        schedule = ShardedWalkExecutor.schedule_counts

        def spy(executor, *args, **kwargs):
            sharded_calls.append(executor.workers)
            return schedule(executor, *args, **kwargs)

        monkeypatch.setattr(ShardedWalkExecutor, "schedule_counts", spy)
        serial = McCatch().fit(X)
        assert not sharded_calls
        parallel_fit = McCatch(engine_mode="parallel", workers=2).fit(X)
        assert sharded_calls and set(sharded_calls) == {2}
        assert np.array_equal(serial.point_scores, parallel_fit.point_scores)
        assert np.array_equal(serial.oracle.counts, parallel_fit.oracle.counts)
        assert [m.indices.tolist() for m in serial.microclusters] == [
            m.indices.tolist() for m in parallel_fit.microclusters
        ]

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
        """``workers`` is the only setting; the deleted overrides are
        unknown keywords."""
        tree = VPTree(vspace)
        with pytest.raises(ValueError, match="workers"):
            ShardedWalkExecutor(tree, workers=0)
        for knob in ({"shards": 2}, {"backend": "thread"}, {"artifact": "x.npz"},
                     {"artifact_dir": "."}, {"shard_by": "query"}, {"walk": "level"}):
            with pytest.raises(TypeError, match=next(iter(knob))):
                ShardedWalkExecutor(tree, **knob)

    def test_thread_backend_publishes_no_artifact(self, vspace):
        ex = ShardedWalkExecutor(VPTree(vspace), workers=2)
        assert ex.backend == "thread" and ex.artifact is None


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
