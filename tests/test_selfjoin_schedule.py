"""SELFJOINC's sparse-focused schedule (Alg. 2, Sec. IV-G).

Counts are pinned to brute force run through the literal Alg. 2
recursion (one radius at a time, dropping a point once its count
exceeds ``c``) for every flat kind, every engine plan and worker count,
on both rung widths:

- one rung per walk on every vector input when the C kernel runs, and
  without it where the numpy walk's float32 rect kernel applies (3-d
  Euclidean);
- blocks of ``RADIUS_BLOCK_SIZE`` rungs elsewhere (Levenshtein, tree
  edit distance, brute force; 70-d Euclidean and cityblock without the
  kernel).

The ladders include radius 0 with duplicates and radii that tie exact
pairwise distances.  Spies pin the width rule itself, one pool task per
shard, and the engine sink's tally of the cells the walks computed.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_flat_trees import hard_radii, unpicklable

from repro.engine import BatchQueryEngine, parallel
from repro.engine.executor import RADIUS_BLOCK_SIZE
from repro.index import BallTree, BruteForceIndex, CoverTree, MTree, SlimTree, VPTree
from repro.index import base as index_base
from repro.index.base import UNKNOWN_COUNT
from repro.index.ckernel import ENV_DISABLE, kernel_available
from repro.metric.base import MetricSpace
from repro.metric.strings import levenshtein
from repro.metric.trees import LabeledTree, tree_edit_distance
from repro.obs import hooks

FLAT_KINDS = [VPTree, BallTree, CoverTree, MTree, SlimTree]
WORKER_COUNTS = [1, 2, 3, 7]


@pytest.fixture(autouse=True)
def _shard_small_inputs(shard_small_inputs):
    """Every test here exercises sharding on small inputs."""


def _clustered(rng, dim: int, n: int) -> np.ndarray:
    X = np.vstack(
        [
            rng.normal(0.0, 1.0, (n, dim)),
            rng.normal(6.0, 0.05, (5, dim)),  # a tight microcluster
            np.zeros((4, dim)),  # exact duplicates: radius-0 ties
        ]
    )
    return X


@pytest.fixture(scope="module")
def l2_3d():
    return MetricSpace(_clustered(np.random.default_rng(1), 3, 110))


@pytest.fixture(scope="module")
def l2_70d():
    return MetricSpace(_clustered(np.random.default_rng(2), 70, 90))


@pytest.fixture(scope="module")
def cityblock():
    return MetricSpace(_clustered(np.random.default_rng(3), 3, 110), "cityblock")


@pytest.fixture(scope="module")
def strings():
    rng = np.random.default_rng(9)
    words = ["".join(rng.choice(list("ABCD"), size=rng.integers(1, 8))) for _ in range(45)]
    return MetricSpace(words + ["AAAA"] * 4, levenshtein)


@pytest.fixture(scope="module")
def trees():
    rng = np.random.default_rng(13)

    def random_tree(depth: int) -> LabeledTree:
        label = "abcd"[int(rng.integers(4))]
        if depth == 0:
            return LabeledTree(label)
        children = [random_tree(depth - 1) for _ in range(int(rng.integers(0, 3)))]
        return LabeledTree(label, children)

    items = [random_tree(2) for _ in range(18)]
    return MetricSpace(items + [LabeledTree("a", [LabeledTree("b")])] * 3, tree_edit_distance)


ONE_RUNG = ["l2_3d"]
BLOCKS = ["l2_70d", "cityblock", "strings", "trees"]


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pools():
    """Process pools persist across executors; stop this module's workers."""
    yield
    parallel.shutdown_pools()


def ladder(space: MetricSpace) -> np.ndarray:
    """A strictly increasing ladder with radius 0 and exact-tie radii."""
    return np.unique(hard_radii(space))


def literal_self_join(space: MetricSpace, radii: np.ndarray, c: int) -> np.ndarray:
    """Alg. 2's SELFJOINC, one radius at a time, over brute-force counts."""
    brute = BruteForceIndex(space)
    n, a = len(space), radii.size
    counts = np.full((n, a), UNKNOWN_COUNT, dtype=np.int64)
    active = np.arange(n)
    for e in range(a - 1):  # the top rung is never joined
        counts[active, e] = brute.count_within(active, float(radii[e]))
        active = active[counts[active, e] <= c]
    counts[active, a - 1] = n
    return counts


def _cardinalities(space: MetricSpace) -> list[int]:
    return [3, max(4, len(space) // 6)]


@pytest.mark.parametrize("cls", FLAT_KINDS)
@pytest.mark.parametrize("fixture", ONE_RUNG + BLOCKS)
def test_every_plan_matches_the_literal_recursion(cls, fixture, request):
    space = request.getfixturevalue(fixture)
    radii = ladder(space)
    tree = cls(space)
    for c in _cardinalities(space):
        expected = literal_self_join(space, radii, c)
        for mode, workers in (("batched", None), ("per_point", None), ("parallel", 2)):
            engine = BatchQueryEngine(tree, mode=mode, workers=workers)
            got = engine.self_join_counts(radii, max_cardinality=c)
            assert np.array_equal(got, expected), (mode, c)


@pytest.mark.parametrize("fixture", ONE_RUNG + BLOCKS)
def test_brute_force_plan_matches_the_literal_recursion(fixture, request):
    space = request.getfixturevalue(fixture)
    radii = ladder(space)
    for c in _cardinalities(space):
        expected = literal_self_join(space, radii, c)
        for mode in ("batched", "per_point"):
            got = BatchQueryEngine(BruteForceIndex(space), mode=mode).self_join_counts(
                radii, max_cardinality=c
            )
            assert np.array_equal(got, expected), (mode, c)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("fixture", ["l2_3d", "cityblock", "strings", "trees", "lambda"])
def test_worker_count_invariance(workers, fixture, request):
    """Threads for vectors and for a metric that cannot be pickled,
    mmap-attached processes for object metrics that pickle."""
    if fixture == "lambda":
        space = unpicklable(request.getfixturevalue("strings"))
    else:
        space = request.getfixturevalue(fixture)
    radii = ladder(space)
    c = _cardinalities(space)[1]
    engine = BatchQueryEngine(VPTree(space), mode="parallel", workers=workers)
    backend = "process" if fixture in ("strings", "trees") else "thread"
    assert engine._sharded.backend == backend
    got = engine.self_join_counts(radii, max_cardinality=c)
    assert np.array_equal(got, literal_self_join(space, radii, c))


def _spy_walk_widths(monkeypatch) -> list[int]:
    """Record the radius count of every ``count_walk`` call in this process."""
    widths: list[int] = []
    walk = index_base.count_walk

    def spy(space, query_ids, radii, tree, **kwargs):
        widths.append(int(np.size(radii)))
        return walk(space, query_ids, radii, tree, **kwargs)

    monkeypatch.setattr(index_base, "count_walk", spy)
    monkeypatch.setattr(parallel, "count_walk", spy)
    return widths


class TestRungWidthRule:
    @pytest.mark.parametrize("mode, workers", [("batched", None), ("parallel", 2)])
    def test_rect_kernel_input_walks_one_rung(self, l2_3d, monkeypatch, mode, workers):
        widths = _spy_walk_widths(monkeypatch)
        engine = BatchQueryEngine(VPTree(l2_3d), mode=mode, workers=workers)
        assert engine.rungs_per_walk() == 1
        engine.self_join_counts(ladder(l2_3d), max_cardinality=20)
        assert widths and set(widths) == {1}

    @pytest.mark.skipif(not kernel_available(), reason="C kernel unavailable")
    @pytest.mark.parametrize("fixture", ["l2_70d", "cityblock"])
    def test_kernel_walks_every_vector_input_one_rung(self, fixture, request, monkeypatch):
        space = request.getfixturevalue(fixture)
        widths = _spy_walk_widths(monkeypatch)
        engine = BatchQueryEngine(VPTree(space))
        assert engine.rungs_per_walk() == 1
        engine.self_join_counts(ladder(space), max_cardinality=len(space) // 2)
        assert widths and set(widths) == {1}

    @pytest.mark.parametrize("fixture", ["l2_70d", "cityblock", "strings"])
    def test_other_inputs_walk_blocks(self, fixture, request, monkeypatch):
        """Object metrics, and vector inputs the numpy walk's rect kernel
        does not cover when the C kernel is off."""
        monkeypatch.setenv(ENV_DISABLE, "1")
        space = request.getfixturevalue(fixture)
        widths = _spy_walk_widths(monkeypatch)
        engine = BatchQueryEngine(VPTree(space))
        assert engine.rungs_per_walk() == RADIUS_BLOCK_SIZE
        engine.self_join_counts(ladder(space), max_cardinality=len(space) // 2)
        assert max(widths) > 1
        assert max(widths) <= RADIUS_BLOCK_SIZE

    def test_per_point_walks_one_rung(self, l2_70d, monkeypatch):
        widths = _spy_walk_widths(monkeypatch)
        engine = BatchQueryEngine(VPTree(l2_70d), mode="per_point")
        engine.self_join_counts(ladder(l2_70d), max_cardinality=30)
        assert widths and set(widths) == {1}

    def test_brute_force_keeps_blocks(self, l2_3d, monkeypatch):
        widths: list[int] = []
        many = BruteForceIndex.count_within_many

        def spy(index, query_ids, radii):
            widths.append(int(np.size(radii)))
            return many(index, query_ids, radii)

        monkeypatch.setattr(BruteForceIndex, "count_within_many", spy)
        engine = BatchQueryEngine(BruteForceIndex(l2_3d))
        assert engine.rungs_per_walk() == RADIUS_BLOCK_SIZE
        engine.self_join_counts(ladder(l2_3d), max_cardinality=60)
        assert max(widths) == RADIUS_BLOCK_SIZE

    def test_index_without_multi_radius_walk_joins_one_rung(self, l2_3d):
        from repro.index import build_index

        engine = BatchQueryEngine(build_index(l2_3d, kind="ckdtree"))
        assert engine.rungs_per_walk() == 1


class _CountingPool:
    """A pool proxy that records every submitted task."""

    def __init__(self, pool, submits):
        self._pool, self._submits = pool, submits

    def submit(self, fn, *args):
        self._submits.append(fn)
        return self._pool.submit(fn, *args)


def _spy_submits(monkeypatch) -> list[object]:
    submits: list[object] = []
    get_pool = parallel._get_pool
    monkeypatch.setattr(
        parallel, "_get_pool", lambda *key: _CountingPool(get_pool(*key), submits)
    )
    return submits


def test_process_shards_run_one_task_each(strings, monkeypatch):
    """The whole multi-block schedule of a shard is one pool task, so
    the element payload crosses to a worker once per shard."""
    submits = _spy_submits(monkeypatch)
    radii = ladder(strings)
    assert radii.size - 1 > RADIUS_BLOCK_SIZE  # several blocks per schedule
    workers = 2
    engine = BatchQueryEngine(VPTree(strings), mode="parallel", workers=workers)
    assert engine._sharded.backend == "process"
    c = len(strings) // 2
    got = engine.self_join_counts(radii, max_cardinality=c)
    assert np.array_equal(got, literal_self_join(strings, radii, c))
    assert submits == [parallel._schedule_shard_attached] * (parallel.OVERSHARD * workers)


def test_one_rung_schedules_run_one_shard_per_worker(l2_3d, monkeypatch):
    """Every walk pays a fixed cost, so a one-rung schedule (a walk per
    rung) is not oversharded."""
    submits = _spy_submits(monkeypatch)
    workers = 3
    engine = BatchQueryEngine(VPTree(l2_3d), mode="parallel", workers=workers)
    assert engine.rungs_per_walk() == 1
    radii = ladder(l2_3d)
    got = engine.self_join_counts(radii, max_cardinality=20)
    assert np.array_equal(got, literal_self_join(l2_3d, radii, 20))
    assert submits == [parallel._walk_schedule] * workers


@pytest.mark.parametrize("minimum, shards", [(10**6, 0), (50, 2), (1, 3)])
def test_small_thread_sets_run_fewer_shards(l2_3d, monkeypatch, minimum, shards):
    """A thread-backed shard holds at least ``MIN_SHARD_QUERIES`` /
    (rungs per walk) queries; a set too small for two shards runs
    inline, with the same counts."""
    monkeypatch.setattr(parallel, "MIN_SHARD_QUERIES", minimum)
    submits = _spy_submits(monkeypatch)
    engine = BatchQueryEngine(VPTree(l2_3d), mode="parallel", workers=3)
    radii = ladder(l2_3d)
    assert len(l2_3d) // 50 == 2  # one rung per walk: 2 shards at minimum 50
    got = engine.self_join_counts(radii, max_cardinality=20)
    assert np.array_equal(got, literal_self_join(l2_3d, radii, 20))
    assert submits == [parallel._walk_schedule] * shards


def test_process_shards_ignore_the_minimum(strings, monkeypatch):
    """Object-metric shards pay Python metric calls per query, so the
    minimum does not apply to them."""
    monkeypatch.setattr(parallel, "MIN_SHARD_QUERIES", 10**6)
    submits = _spy_submits(monkeypatch)
    engine = BatchQueryEngine(VPTree(strings), mode="parallel", workers=2)
    radii = ladder(strings)
    c = len(strings) // 2
    got = engine.self_join_counts(radii, max_cardinality=c)
    assert np.array_equal(got, literal_self_join(strings, radii, c))
    assert submits == [parallel._schedule_shard_attached] * (parallel.OVERSHARD * 2)


@pytest.fixture()
def engine_sink():
    was_on = hooks.telemetry_enabled()
    hooks.disable_process_telemetry()
    _, engine = hooks.enable_process_telemetry()
    yield engine
    hooks.disable_process_telemetry()
    if was_on:
        hooks.enable_process_telemetry()


@pytest.mark.parametrize("fixture", ["l2_3d", "l2_70d", "cityblock"])
@pytest.mark.parametrize("mode, workers", [("batched", None), ("parallel", 3)])
def test_engine_sink_tallies_the_cells_walked(fixture, mode, workers, request, monkeypatch, engine_sink):
    """The tally read off the returned counts equals the cells the walks
    actually computed, blanked block tails included."""
    space = request.getfixturevalue(fixture)
    walked = {"cells": 0}
    walk = index_base.count_walk

    def spy(space_, query_ids, radii, tree, **kwargs):
        walked["cells"] += int(np.size(query_ids) * np.size(radii))
        return walk(space_, query_ids, radii, tree, **kwargs)

    monkeypatch.setattr(index_base, "count_walk", spy)
    monkeypatch.setattr(parallel, "count_walk", spy)
    radii = ladder(space)
    engine = BatchQueryEngine(VPTree(space), mode=mode, workers=workers)
    counts = engine.self_join_counts(radii, max_cardinality=len(space) // 4)
    known = int(np.count_nonzero(counts[:, :-1] != UNKNOWN_COUNT))
    assert engine_sink.get("count_entries") == walked["cells"]
    assert walked["cells"] >= known
    if engine.rungs_per_walk() == 1:
        assert walked["cells"] == known
