"""The compiled walk kernel: differential correctness and the loader.

The compiled count walk (``repro_count``, one call per radius) decides
a node or member only outside a proven margin around the radius and
re-measures the band in between through numpy, so its counts must equal
the brute-force oracle (:class:`~repro.index.bruteforce.BruteForceIndex`)
bit for bit — for every flat tree family, every vector L_p space, on
full and subset trees, across the regression radii (negative, 0 with
duplicates, ties on exact pairwise distances), on data shifted so far
that the margin swamps the radii, for any band-buffer capacity, and
from two threads at once.  Object metrics never reach the kernel:
``count_walk`` sends them to the numpy level walk, which must match
brute force on its own.  On top of that sit the loader's guarantees:
the on-disk ``.so`` cache is keyed by source + toolchain (hit on
re-probe, miss on a source edit), a torn or foreign object under the
right name is rebuilt once, a missing compiler degrades to the numpy
walk with ``kernel_info`` naming the cause, ``REPRO_NO_CKERNEL=1``
forces the same fallback, and two processes racing the first build
both load an intact library.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from test_flat_trees import boundary_radii, brute, hard_radii

from repro import McCatch
from repro.api import make_estimator
from repro.engine import BatchQueryEngine, ShardedWalkExecutor
from repro.index import (
    BallTree,
    BruteForceIndex,
    CoverTree,
    MTree,
    SlimTree,
    VPTree,
    build_index,
)
from repro.index import ckernel
from repro.index.base import count_walk, level_count_walk
from repro.index.ckernel import (
    CKernelError,
    compiled_count_walk,
    kernel_available,
    kernel_info,
)
from repro.index.ckernel import loader, walk as ckernel_walk
from repro.io.indexes import index_payload, load_index
from repro.metric.base import MetricSpace
from repro.metric.strings import levenshtein
from repro.metric.trees import LabeledTree, tree_edit_distance

FLAT_KINDS = [VPTree, BallTree, CoverTree, MTree, SlimTree]
WORKER_COUNTS = [1, 2, 3, 7]

needs_kernel = pytest.mark.skipif(
    not kernel_available(),
    reason="C kernel unavailable (no compiler, or REPRO_NO_CKERNEL set)",
)


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
def wide_vspace():
    """5-d vector data: the einsum re-measurement path of the band
    (1-/2-d data settles through the column-take expansion)."""
    rng = np.random.default_rng(7)
    X = np.vstack([rng.normal(0, 1, (60, 5)), np.zeros((4, 5))])
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


SPACES = ["vspace", "wide_vspace", "sspace", "tspace"]


def walk_for(space):
    """The walk under test for ``space``: the kernel for vector spaces,
    ``count_walk`` (the numpy level walk) for object metrics."""
    return compiled_count_walk if space.is_vector else count_walk


@needs_kernel
class TestCompiledDifferential:
    """compiled == level == brute force, bit for bit, everywhere."""

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    @pytest.mark.parametrize("fixture", SPACES)
    def test_all_families_all_spaces(self, cls, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = hard_radii(space)
        q = np.arange(len(space))
        flat = cls(space).flat
        expected = brute(space, radii)
        assert np.array_equal(walk_for(space)(space, q, radii, flat), expected)
        assert np.array_equal(level_count_walk(space, q, radii, flat), expected)
        if not space.is_vector:
            with pytest.raises(TypeError, match="vector"):
                compiled_count_walk(space, q, radii, flat)

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_subset_queries(self, cls, vspace):
        radii = hard_radii(vspace)
        q = np.arange(1, len(vspace), 3)
        ids = np.arange(0, len(vspace), 2)
        flat = cls(vspace, ids).flat
        assert np.array_equal(
            compiled_count_walk(vspace, q, radii, flat), brute(vspace, radii, q, ids)
        )

    @pytest.mark.parametrize("fixture", SPACES)
    def test_small_capacity_leaves(self, fixture, request):
        """Tiny leaves force deep trees and many scanned leaves."""
        space = request.getfixturevalue(fixture)
        radii = hard_radii(space)
        q = np.arange(len(space))
        flat = MTree(space, capacity=4).flat
        assert np.array_equal(
            walk_for(space)(space, q, radii, flat), brute(space, radii)
        )

    def test_out_of_range_query_ids_rejected(self, vspace):
        """The kernel reads query rows by pointer: ids outside the space
        raise before the call instead of reading past ``data``."""
        flat = VPTree(vspace).flat
        for bad in ([0, len(vspace)], [-1, 3]):
            with pytest.raises(IndexError):
                compiled_count_walk(vspace, np.array(bad), np.array([1.0]), flat)

    def test_empty_radii_and_empty_queries(self, vspace):
        flat = VPTree(vspace).flat
        zero_r = compiled_count_walk(
            vspace, np.arange(5), np.empty(0, dtype=np.float64), flat
        )
        assert zero_r.shape == (5, 0)
        zero_q = compiled_count_walk(
            vspace, np.empty(0, dtype=np.intp), np.array([1.0]), flat
        )
        assert zero_q.shape == (0, 1)

    @pytest.mark.parametrize("pieces", WORKER_COUNTS)
    @pytest.mark.parametrize("fixture", SPACES)
    def test_frontier_resume_piece_invariance(self, pieces, fixture, request, monkeypatch):
        """A band buffer of ``pieces`` pairs (the walk's ``_BAND_CAP``,
        shrunk from 2**14) fills, is settled, and the walk resumes at
        the row that did not fit: counts still equal brute force.  The
        radius-0 rungs band every duplicate, so the buffer does fill.
        Object spaces walk the numpy level walk."""
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        flat = VPTree(space).flat
        monkeypatch.setattr(ckernel_walk, "_BAND_CAP", pieces)
        assert np.array_equal(walk_for(space)(space, q, radii, flat), brute(space, radii))

    @pytest.mark.parametrize("cls", [MTree, SlimTree])
    def test_frontier_resume_keeps_caller_arrays(self, cls, vspace, monkeypatch):
        """The kernel reads the queries, radii, data and tree arrays by
        pointer and resumes after every full band buffer; it must never
        write to any of them."""
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        flat = cls(vspace, capacity=4).flat
        kept = (q, radii, vspace.data, *flat.to_arrays().values())
        before = [a.copy() for a in kept]
        monkeypatch.setattr(ckernel_walk, "_BAND_CAP", 3)
        counts = compiled_count_walk(vspace, q, radii, flat)
        assert np.array_equal(counts, brute(vspace, radii))
        for now, orig in zip(kept, before):
            assert np.array_equal(now, orig)

    def test_stats_counters_populated(self, vspace):
        """Kernel calls, node visits, distance dispatches and scanned /
        settled members; the level walk's searchsorted and scatter
        dispatches do not exist here."""
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        flat = VPTree(vspace).flat
        stats: dict = {}
        counts = compiled_count_walk(vspace, q, radii, flat, stats=stats)
        assert np.array_equal(counts, brute(vspace, radii))
        assert stats["steps"] == radii.size  # one kernel call per radius
        for key in ("entries", "distance_calls", "leaf_entries_total",
                    "leaf_entries_filtered"):
            assert stats[key] > 0
        assert stats["distance_calls"] > stats["steps"]  # the radius-0 bands
        assert stats["leaf_entries_filtered"] <= stats["leaf_entries_total"]
        assert stats["searchsorted_calls"] == stats["scatter_calls"] == 0

    def test_walk_attribute_selects_compiled(self, vspace, monkeypatch):
        """Trees carry no walk attribute any more; their queries run the
        compiled walk whenever the kernel builds."""
        calls = []
        real = ckernel.compiled_count_walk

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ckernel, "compiled_count_walk", spy)
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        tree = VPTree(vspace)
        assert not hasattr(tree, "walk")
        assert np.array_equal(tree.count_within_many(q, radii), brute(vspace, radii))
        assert np.array_equal(
            tree.count_within(q, float(radii[3])), brute(vspace, radii[3:4])[:, 0]
        )
        assert len(calls) == 2


def lp_space(metric, dim: int, n: int = 90, seed: int = 0) -> MetricSpace:
    """Clustered ``dim``-d data with duplicates and a tight pair."""
    rng = np.random.default_rng(seed + dim)
    X = np.vstack([
        rng.normal(0.0, 1.0, (n, dim)),
        rng.normal(4.0, 0.01, (6, dim)),
        np.zeros((4, dim)),  # exact duplicates: the radius-0 class
    ])
    return MetricSpace(X, metric)


@needs_kernel
class TestCompiledLp:
    """Every L_p order and dimensionality the kernel's metric switch and
    scan loops take, every family, against brute force."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 64, 65, 100])
    @pytest.mark.parametrize("metric", ["cityblock", "chebyshev", 3.0, None])
    def test_every_family_matches_brute_force(self, metric, dim):
        space = lp_space(metric, dim)
        radii = hard_radii(space)
        q = np.arange(len(space))
        expected = brute(space, radii)
        for cls in FLAT_KINDS:
            got = compiled_count_walk(space, q, radii, cls(space).flat)
            assert np.array_equal(got, expected), cls.__name__

    @pytest.mark.parametrize("metric", ["cityblock", None])
    def test_subset_tree_with_unordered_query_ids(self, metric):
        """The inlier-index shape: a tree over a subset, queried with
        ids in any order, some indexed and some not."""
        space = lp_space(metric, 3, n=150)
        rng = np.random.default_rng(3)
        ids = np.sort(rng.choice(len(space), size=100, replace=False))
        q = rng.permutation(len(space))[:70]
        radii = hard_radii(space)
        expected = brute(space, radii, q, ids)
        for cls in FLAT_KINDS:
            got = compiled_count_walk(space, q, radii, cls(space, ids).flat)
            assert np.array_equal(got, expected), cls.__name__

    @pytest.mark.parametrize("metric", ["cityblock", None])
    def test_far_shifted_data_bands_and_grows(self, metric, monkeypatch):
        """Data shifted by 1e7 makes the margin swamp unit-scale radii,
        so nearly every pair is banded; with a one-pair initial buffer
        the walk must grow it, settle it many times, and still count
        like brute force."""
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(0.0, 1.0, (60, 3)), np.zeros((4, 3))]) + 1e7
        space = MetricSpace(X, metric)
        radii = np.array([-0.5, 0.0, 0.3, 1.0, 2.5])
        settled: list[int] = []
        settle = ckernel_walk._settle_band

        def spy(space_, qids, rows, elems, r, counts):
            settled.append(rows.size)
            return settle(space_, qids, rows, elems, r, counts)

        monkeypatch.setattr(ckernel_walk, "_BAND_CAP", 1)
        monkeypatch.setattr(ckernel_walk, "_settle_band", spy)
        q = np.arange(len(space))
        got = compiled_count_walk(space, q, radii, VPTree(space).flat)
        assert np.array_equal(got, brute(space, radii))
        assert max(settled) > 1  # the buffer grew past its one pair
        assert len(settled) > radii.size  # and was settled mid-radius

    @pytest.mark.parametrize("metric", ["cityblock", None])
    def test_far_shifted_tie_radii_every_family(self, metric):
        """Radii at numpy's own pairwise distances, and one ulp either
        side, on data shifted by 1e7: einsum's round-off there breaks
        the triangle inequality between computed floats, so a swallow
        or prune taken without the margin miscounts (the numpy level
        walk, which has none, does)."""
        rng = np.random.default_rng(11)
        X = np.vstack([rng.normal(0.0, 1.0, (150, 3)), np.zeros((4, 3))]) + 1e7
        space = MetricSpace(X, metric)
        d = np.sort(space.distances(0, np.arange(len(space))))[::7]
        radii = np.unique(np.concatenate([
            d, np.nextafter(d, -np.inf), np.nextafter(d, np.inf),
            np.linspace(0.0, d.max(), 25),
        ]))
        q = np.arange(len(space))
        expected = brute(space, radii)
        for cls in FLAT_KINDS:
            got = compiled_count_walk(space, q, radii, cls(space).flat)
            assert np.array_equal(got, expected), cls.__name__

    def test_two_threads_count_over_one_tree(self):
        """ctypes releases the GIL: two threads walking one tree (and
        filling its scan cache) at once, switching often, both get brute
        force's counts."""
        space = lp_space(None, 3, n=400)
        radii = hard_radii(space)
        flat = VPTree(space).flat
        q = np.arange(len(space))
        expected = brute(space, radii)
        results: list = [None, None]

        def run(slot):
            for _ in range(5):
                results[slot] = compiled_count_walk(space, q, radii, flat)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("dim, metric", [(3, "cityblock"), (80, None)])
    def test_engine_plans_agree_on_one_rung_inputs(self, dim, metric, shard_small_inputs):
        """The kernel walks every vector space one rung at a time:
        batched, ``per_point`` and parallel fits stay bit-identical."""
        space = lp_space(metric, dim, n=250, seed=1)
        fits = [
            McCatch(index="vptree", engine_mode=mode, workers=workers).fit(space)
            for mode, workers in (("batched", None), ("per_point", None), ("parallel", 2))
        ]
        for other in fits[1:]:
            assert np.array_equal(other.point_scores, fits[0].point_scores)
            assert np.array_equal(other.oracle.counts, fits[0].oracle.counts)
            assert [m.indices.tolist() for m in other.microclusters] == [
                m.indices.tolist() for m in fits[0].microclusters
            ]


@needs_kernel
@pytest.mark.usefixtures("shard_small_inputs")
class TestShardedCompiled:
    """Sharding over the compiled kernel stays bit-identical."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("axis", ["query"])  # the one sharding axis left
    def test_thread_backend_bit_identical(self, workers, axis, vspace):
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        ex = ShardedWalkExecutor(VPTree(vspace), workers=workers)
        assert ex.backend == "thread"
        assert np.array_equal(ex.count_within_many(q, radii), brute(vspace, radii))

    @pytest.mark.parametrize("fixture", SPACES)
    def test_every_space_two_workers(self, fixture, request):
        space = request.getfixturevalue(fixture)
        radii = boundary_radii(space)
        q = np.arange(len(space))
        with ShardedWalkExecutor(VPTree(space), workers=2) as ex:
            assert np.array_equal(ex.count_within_many(q, radii), brute(space, radii))

    @pytest.mark.parametrize("cls", FLAT_KINDS)
    def test_every_family_through_executor(self, cls, vspace):
        radii = boundary_radii(vspace)
        q = np.arange(len(vspace))
        got = ShardedWalkExecutor(cls(vspace), workers=3).count_within_many(q, radii)
        assert np.array_equal(got, brute(vspace, radii))

    def test_engine_walk_override_bit_identical(self, vspace, monkeypatch):
        """The one walk override left is ``REPRO_NO_CKERNEL``: serial and
        sharded engine self-joins are bit-identical under either walk."""
        radii = np.unique(boundary_radii(vspace))[1:]
        tree = VPTree(vspace)
        c = 10

        def self_joins():
            return [
                BatchQueryEngine(tree, mode=mode, workers=workers).self_join_counts(
                    radii, max_cardinality=c
                )
                for mode, workers in (("per_point", None), ("batched", None), ("parallel", 2))
            ]

        compiled = self_joins()
        monkeypatch.setenv(loader.ENV_DISABLE, "1")
        level = self_joins()
        for counts in compiled + level:
            assert np.array_equal(counts, compiled[0])


class TestWalkSelection:
    """The kernel runs when it builds; nothing else selects a walk."""

    def test_auto_resolves_to_available_walk(self, vspace, monkeypatch):
        """``count_walk`` dispatches to the compiled walk exactly when
        ``kernel_available()``, and to the level walk under
        ``REPRO_NO_CKERNEL=1``."""
        calls = []
        real = ckernel.compiled_count_walk

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ckernel, "compiled_count_walk", spy)
        q = np.arange(len(vspace))
        radii = boundary_radii(vspace)
        flat = VPTree(vspace).flat
        assert np.array_equal(count_walk(vspace, q, radii, flat), brute(vspace, radii))
        assert bool(calls) == kernel_available()
        calls.clear()
        monkeypatch.setenv(loader.ENV_DISABLE, "1")
        assert np.array_equal(count_walk(vspace, q, radii, flat), brute(vspace, radii))
        assert calls == []

    def test_count_walk_rejects_unknown_mode(self, vspace):
        for walk in ("recursive", "compiled", "auto"):
            with pytest.raises(TypeError, match="walk"):
                count_walk(
                    vspace, np.arange(3), np.array([1.0]), VPTree(vspace).flat,
                    walk=walk,
                )
            with pytest.raises(TypeError, match="walk"):
                VPTree(vspace, walk=walk)

    def test_stack_walk_rejects_frontier(self, vspace):
        """Old spellings fail with the existing errors: ``walk=`` and the
        ``frontier=`` resume are unknown keywords on every walk, tree,
        engine and detector, and ``walk`` an unknown spec parameter."""
        flat = VPTree(vspace).flat
        q = np.arange(len(vspace))
        radii = boundary_radii(vspace)
        for fn in (count_walk, level_count_walk, compiled_count_walk):
            with pytest.raises(TypeError, match="frontier"):
                fn(vspace, q, radii, flat, frontier=None)
        with pytest.raises(TypeError, match="walk"):
            count_walk(vspace, q, radii, flat, walk="stack")
        with pytest.raises(TypeError, match="walk"):
            BatchQueryEngine(VPTree(vspace), walk="stack")
        for kind in ("vptree", "mtree", "auto"):
            with pytest.raises(TypeError, match="walk"):
                build_index(vspace, kind=kind, walk="stack")
        with pytest.raises(TypeError, match="index_walk"):
            McCatch(index="vptree", index_walk="stack")
        with pytest.raises(ValueError, match="unknown parameter 'walk'"):
            make_estimator("mccatch?index=vptree&walk=stack")

    @pytest.mark.parametrize("member", ["auto", "level", "compiled", "stack"])
    def test_archive_walk_member_is_ignored(self, member, vspace, tmp_path):
        """Archives from before the walk selector was deleted carry a
        ``walk`` member; any value loads and counts like brute force.
        New archives keep the kernel provenance but write no walk."""
        payload = index_payload(VPTree(vspace))
        payload["walk"] = np.str_(member)
        path = tmp_path / f"{member}.npz"
        np.savez(path, **payload)
        q = np.arange(len(vspace))
        radii = boundary_radii(vspace)
        for mmap in (False, True):
            loaded = load_index(path, vspace, mmap=mmap)
            assert np.array_equal(loaded.count_within_many(q, radii), brute(vspace, radii))
        fresh = index_payload(loaded)
        assert "walk" not in fresh and "ckernel_available" in fresh

    def test_disabled_kernel_falls_back(self, vspace, monkeypatch):
        """``REPRO_NO_CKERNEL=1``: brute-force counts through the numpy
        walk, no warning, and ``kernel_info`` names the switch."""
        monkeypatch.setenv(loader.ENV_DISABLE, "1")
        loader.reset()
        try:
            q = np.arange(len(vspace))
            radii = boundary_radii(vspace)
            flat = VPTree(vspace).flat
            assert not kernel_available()
            assert kernel_info()["disabled"]
            with pytest.raises(CKernelError):
                compiled_count_walk(vspace, q, radii, flat)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                counts = count_walk(vspace, q, radii, flat)
            assert np.array_equal(counts, brute(vspace, radii))
        finally:
            monkeypatch.delenv(loader.ENV_DISABLE, raising=False)
            loader.reset()

    def test_engine_rejects_walk_on_non_flat_index(self, vspace):
        for index in (BruteForceIndex(vspace), VPTree(vspace)):
            with pytest.raises(TypeError, match="walk"):
                BatchQueryEngine(index, walk="compiled")

    def test_factory_rejects_walk_on_non_flat_kind(self, vspace):
        with pytest.raises(TypeError, match="walk"):
            build_index(vspace, kind="ckdtree", walk="compiled")

    def test_spec_round_trip(self):
        estimator = make_estimator("mccatch?index=vptree")
        assert "walk" not in estimator.spec
        assert make_estimator(estimator.spec).spec == estimator.spec
        with pytest.raises(ValueError, match="unknown parameter 'walk'"):
            make_estimator("mccatch?index=vptree&walk=compiled")

    def test_cli_detect_walk_flag(self, tmp_path):
        """``--walk`` is gone from ``repro detect`` and ``repro fit``."""
        from repro.cli import main

        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (80, 2)), [[9.0, 9.0]]])
        path = tmp_path / "data.csv"
        np.savetxt(path, X, delimiter=",")
        for command in ("detect", "fit"):
            for value in ("compiled", "stack"):
                with pytest.raises(SystemExit) as exc:
                    main([command, str(path), "--index", "vptree", "--walk", value])
                assert exc.value.code == 2  # argparse: unrecognized arguments


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A private, empty kernel cache; restores global state afterwards."""
    monkeypatch.setenv(loader.ENV_CACHE, str(tmp_path / "ckernel"))
    monkeypatch.delenv(loader.ENV_DISABLE, raising=False)
    loader.reset()
    yield tmp_path / "ckernel"
    monkeypatch.undo()
    loader.reset()


def _so_files(cache: Path) -> list[Path]:
    return sorted(cache.glob("*.so"))


@pytest.mark.skipif(
    loader.find_compiler() is None, reason="no C compiler on this machine"
)
class TestLoaderCache:
    """Build cache semantics: keying, reuse, invalidation, torn objects."""

    def test_first_build_publishes_keyed_so(self, fresh_cache):
        kernel = loader.get_kernel()
        assert kernel is not None
        sos = _so_files(fresh_cache)
        assert sos == [fresh_cache / f"repro_ckernel_{kernel.key}.so"]
        # No torn temporaries left behind by the mkstemp+rename publish.
        assert not list(fresh_cache.glob("*.tmp.so"))

    def test_reprobe_hits_cache_without_rebuilding(self, fresh_cache):
        assert loader.get_kernel() is not None
        [so] = _so_files(fresh_cache)
        stamp = so.stat().st_mtime_ns
        loader.reset()
        calls = []
        original = loader._compile

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        loader._compile = counting
        try:
            assert loader.get_kernel() is not None
        finally:
            loader._compile = original
        assert calls == []  # cache hit: same key, no compile
        assert so.stat().st_mtime_ns == stamp

    def test_source_change_misses_cache(self, fresh_cache, tmp_path, monkeypatch):
        assert loader.get_kernel() is not None
        first = loader.get_kernel().key
        edited = tmp_path / "kernel_edited.c"
        edited.write_text(loader.SOURCE_PATH.read_text() + "\n/* edited */\n")
        monkeypatch.setattr(loader, "SOURCE_PATH", edited)
        loader.reset()
        kernel = loader.get_kernel()
        assert kernel is not None
        assert kernel.key != first
        assert len(_so_files(fresh_cache)) == 2  # both keys live side by side

    def test_key_covers_source_banner_and_flags(self):
        base = loader.cache_key("int x;", "cc 1.0")
        assert loader.cache_key("int y;", "cc 1.0") != base
        assert loader.cache_key("int x;", "cc 2.0") != base

    def test_torn_so_is_rebuilt_once(self, fresh_cache, vspace):
        # Plant the torn object *before* anything dlopens from this
        # cache: overwriting a mapped .so in place would SIGBUS the
        # process, which is exactly why the loader replaces the file
        # (new inode) instead of rewriting it.
        key = loader.cache_key(
            loader.SOURCE_PATH.read_text(),
            loader.compiler_banner(loader.find_compiler()),
        )
        so = fresh_cache / f"repro_ckernel_{key}.so"
        so.parent.mkdir(parents=True, exist_ok=True)
        so.write_bytes(b"this is not a shared object")
        kernel = loader.get_kernel()
        assert kernel is not None  # rebuilt from source under the same key
        assert so.stat().st_size > 1000
        q = np.arange(len(vspace))
        radii = boundary_radii(vspace)
        flat = VPTree(vspace).flat
        assert np.array_equal(
            compiled_count_walk(vspace, q, radii, flat), brute(vspace, radii)
        )

    def test_missing_compiler_degrades_to_numpy_walk(self, fresh_cache, vspace, monkeypatch):
        monkeypatch.setenv("CC", "definitely-not-a-compiler")
        loader.reset()
        assert loader.find_compiler() is None
        assert not kernel_available()
        info = kernel_info()
        assert not info["available"] and "compiler" in info["error"]
        q = np.arange(len(vspace))
        radii = boundary_radii(vspace)
        flat = VPTree(vspace).flat
        assert np.array_equal(count_walk(vspace, q, radii, flat), brute(vspace, radii))

    def test_concurrent_first_build_from_two_processes(self, fresh_cache):
        """Two processes race the first build; both must load an intact
        library (mkstemp + atomic rename, no torn .so)."""
        script = (
            "import numpy as np\n"
            "from repro.index.ckernel import compiled_count_walk, kernel_available\n"
            "from repro.index import VPTree\n"
            "from repro.metric.base import MetricSpace\n"
            "assert kernel_available()\n"
            "space = MetricSpace(np.random.default_rng(0).normal(size=(50, 2)))\n"
            "tree = VPTree(space)\n"
            "counts = compiled_count_walk(\n"
            "    space, tree.ids, np.array([0.0, 0.5, 2.0]), tree.flat)\n"
            "assert counts.shape == (50, 3)\n"
        )
        env = dict(os.environ)
        env[loader.ENV_CACHE] = str(fresh_cache)
        env.pop(loader.ENV_DISABLE, None)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for p in procs:
            _, err = p.communicate(timeout=300)
            assert p.returncode == 0, err.decode()
        assert len(_so_files(fresh_cache)) == 1
        assert not list(fresh_cache.glob("*.tmp.so"))
