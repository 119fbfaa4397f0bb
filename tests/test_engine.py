"""Differential tests for the batch query engine (repro.engine).

The engine's contract is exactness: the batched executor must produce
bit-for-bit the same results as the per-point reference executor — and
``count_within_many`` the same counts as stacked ``count_within``
calls — across every index kind, every metric-space type (vectors,
strings, trees), and the edge radii (0, exact ties at the threshold,
radius >= diameter).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import McCatch
from repro.engine import BatchQueryEngine, knn_distances, nearest_distances_to
from repro.index import available_index_kinds, build_index
from repro.metric.base import MetricSpace
from repro.metric.strings import levenshtein
from repro.metric.trees import LabeledTree, tree_edit_distance

ALL_KINDS = available_index_kinds()
METRIC_KINDS = [k for k in ALL_KINDS if k != "ckdtree"]


def _tree(label, *children):
    return LabeledTree(label, children)


@pytest.fixture(scope="module")
def vector_edge_space():
    """Vector data with exact duplicates (radius-0 ties are real)."""
    rng = np.random.default_rng(7)
    X = np.vstack(
        [
            rng.normal(0, 1, (60, 3)),
            rng.normal(5, 0.5, (30, 3)),
            rng.uniform(-8, 8, (10, 3)),
        ]
    )
    X = np.vstack([X, X[:4]])  # duplicated points
    return MetricSpace(X)


@pytest.fixture(scope="module")
def tree_space():
    trees = [
        _tree("a", _tree("b"), _tree("c")),
        _tree("a", _tree("b"), _tree("d")),
        _tree("a", _tree("b", _tree("e")), _tree("c")),
        _tree("x", _tree("y"), _tree("z", _tree("w"))),
        _tree("x", _tree("y")),
        _tree("x"),
        _tree("a", _tree("c"), _tree("b")),
        _tree("q", _tree("q", _tree("q", _tree("q")))),
        _tree("a", _tree("b"), _tree("c")),  # exact duplicate of the first
        _tree("m", _tree("n"), _tree("o"), _tree("p")),
    ]
    return MetricSpace(trees, tree_edit_distance)


def _edge_radii(space):
    """Radius ladder with every edge case: 0, an exact pairwise tie,
    mid radii, the diameter itself, and beyond the diameter."""
    dm = space.distance_matrix()
    diameter = float(dm.max())
    tie = float(np.median(dm[dm > 0])) if (dm > 0).any() else 1.0
    return np.unique([0.0, tie, diameter / 16, diameter / 4, diameter, diameter * 2])


# -- count_within_many vs stacked count_within ---------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_count_within_many_matches_stacked_vectors(vector_edge_space, kind):
    space = vector_edge_space
    radii = _edge_radii(space)
    index = build_index(space, kind=kind)
    stacked = np.stack(
        [index.count_within(index.ids, float(r)) for r in radii], axis=1
    )
    assert np.array_equal(index.count_within_many(index.ids, radii), stacked)


@pytest.mark.parametrize("kind", METRIC_KINDS)
def test_count_within_many_matches_stacked_strings(string_space, kind):
    radii = _edge_radii(string_space)
    index = build_index(string_space, kind=kind)
    stacked = np.stack(
        [index.count_within(index.ids, float(r)) for r in radii], axis=1
    )
    assert np.array_equal(index.count_within_many(index.ids, radii), stacked)


@pytest.mark.parametrize("kind", METRIC_KINDS)
def test_count_within_many_matches_stacked_trees(tree_space, kind):
    radii = _edge_radii(tree_space)
    index = build_index(tree_space, kind=kind)
    stacked = np.stack(
        [index.count_within(index.ids, float(r)) for r in radii], axis=1
    )
    assert np.array_equal(index.count_within_many(index.ids, radii), stacked)


def test_count_within_many_subset_queries_and_subset_index(vector_edge_space):
    """Queries need not be indexed; the index need not cover everything."""
    space = vector_edge_space
    index = build_index(space, np.arange(0, 50), kind="vptree")
    queries = np.arange(50, 80)
    radii = _edge_radii(space)
    stacked = np.stack([index.count_within(queries, float(r)) for r in radii], axis=1)
    assert np.array_equal(index.count_within_many(queries, radii), stacked)


def test_count_within_many_rejects_unsorted_radii(vector_edge_space):
    index = build_index(vector_edge_space, kind="vptree")
    with pytest.raises(ValueError, match="ascending"):
        index.count_within_many(index.ids[:3], [2.0, 1.0])


# -- engine executors ----------------------------------------------------


@pytest.mark.parametrize("sparse_focused", [True, False])
@pytest.mark.parametrize("small_radii_only", [True, False])
def test_self_join_counts_modes_identical(vector_edge_space, sparse_focused, small_radii_only):
    space = vector_edge_space
    index = build_index(space, kind="vptree")
    diameter = index.diameter_estimate()
    radii = np.array([diameter / 2**k for k in range(7, -1, -1)])
    kwargs = dict(
        max_cardinality=12,
        sparse_focused=sparse_focused,
        small_radii_only=small_radii_only,
    )
    batched = BatchQueryEngine(index).self_join_counts(radii, **kwargs)
    per_point = BatchQueryEngine(index, mode="per_point").self_join_counts(radii, **kwargs)
    assert np.array_equal(batched, per_point)


def test_first_nonempty_radius_modes_identical(vector_edge_space):
    space = vector_edge_space
    index = build_index(space, np.arange(0, 60), kind="vptree")
    queries = np.arange(60, 100)
    radii = _edge_radii(space)
    batched = BatchQueryEngine(index).first_nonempty_radius(queries, radii)
    per_point = BatchQueryEngine(index, mode="per_point").first_nonempty_radius(
        queries, radii
    )
    assert np.array_equal(batched, per_point)
    # spot-check semantics against raw counts
    counts = index.count_within_many(queries, radii)
    for row in range(queries.size):
        hits = np.nonzero(counts[row] > 0)[0]
        expected = hits[0] if hits.size else -1
        assert batched[row] == expected


def test_engine_rejects_unknown_mode(vector_edge_space):
    index = build_index(vector_edge_space, kind="brute")
    with pytest.raises(ValueError, match="unknown engine mode"):
        BatchQueryEngine(index, mode="vectorized")


# -- full-pipeline differential: batched vs per_point McCatch ------------


def _assert_results_identical(res_a, res_b):
    assert res_a.n == res_b.n
    assert np.array_equal(res_a.point_scores, res_b.point_scores)
    assert np.array_equal(res_a.oracle.counts, res_b.oracle.counts)
    assert np.array_equal(res_a.oracle.x, res_b.oracle.x)
    assert np.array_equal(res_a.oracle.y, res_b.oracle.y)
    assert res_a.cutoff.value == res_b.cutoff.value
    assert len(res_a.microclusters) == len(res_b.microclusters)
    for mc_a, mc_b in zip(res_a.microclusters, res_b.microclusters):
        assert np.array_equal(mc_a.indices, mc_b.indices)
        assert mc_a.score == mc_b.score
        assert mc_a.bridge_length == mc_b.bridge_length


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_mccatch_differential_vectors(kind):
    rng = np.random.default_rng(3)
    X = np.vstack(
        [
            rng.normal(0, 1, (110, 2)),
            rng.normal(0, 0.02, (5, 2)) + [7.0, 7.0],
            [[12.0, -5.0]],
        ]
    )
    batched = McCatch(index=kind).fit(X)
    per_point = McCatch(index=kind, engine_mode="per_point").fit(X)
    _assert_results_identical(batched, per_point)
    assert batched.microclusters, "planted structure should be detected"


@pytest.mark.parametrize("kind", METRIC_KINDS)
def test_mccatch_differential_strings(kind):
    words = [
        "SMITH", "SMYTH", "SMITT", "JOHNSON", "JONSON", "JOHNSTON",
        "BRAUN", "BROWN", "BRAWN", "GARCIA", "GARZIA", "GARCIAS",
        "MILLER", "MILLAR", "MULLER", "XKRZQW", "XKRZQY",
    ]
    batched = McCatch(index=kind).fit(words, levenshtein)
    per_point = McCatch(index=kind, engine_mode="per_point").fit(words, levenshtein)
    _assert_results_identical(batched, per_point)


@pytest.mark.parametrize("kind", METRIC_KINDS)
def test_mccatch_differential_trees(tree_space, kind):
    batched = McCatch(index=kind).fit(tree_space)
    per_point = McCatch(index=kind, engine_mode="per_point").fit(tree_space)
    _assert_results_identical(batched, per_point)


# -- neighbor workloads --------------------------------------------------


def test_engine_knn_matches_bruteforce_ranking():
    # No duplicate points here: with exact ties at distance 0 the scipy
    # fast path's "strip the first column" self-exclusion is ambiguous
    # (historical baseline semantics, kept bit-compatible).
    rng = np.random.default_rng(5)
    space = MetricSpace(rng.normal(0, 1, (80, 3)))
    dm = space.distance_matrix()
    np.fill_diagonal(dm, np.inf)
    expected = np.sort(dm, axis=1)[:, :5]
    for kind in ("ckdtree", "vptree"):
        dists, ids = knn_distances(build_index(space, kind=kind), 5)
        assert np.allclose(dists, expected)
        rows = np.arange(len(space))[:, None]
        assert np.allclose(dm[rows, ids], dists)


def test_engine_knn_rejects_bad_k(vector_edge_space):
    index = build_index(vector_edge_space, kind="vptree")
    with pytest.raises(ValueError):
        knn_distances(index, 0)
    with pytest.raises(ValueError):
        knn_distances(index, len(index))


def test_nearest_distances_to_matches_loop(vector_edge_space):
    space = vector_edge_space
    rng = np.random.default_rng(11)
    objs = [rng.normal(0, 2, 3) for _ in range(17)]
    ids = np.arange(0, 40)
    got = nearest_distances_to(space, objs, ids)
    expected = np.array([space.distances_to(o, ids).min() for o in objs])
    assert np.array_equal(got, expected)


def test_nearest_distances_to_object_space(string_space):
    got = nearest_distances_to(string_space, ["SMIT", "ZZZZZZ"], np.arange(len(string_space)))
    expected = np.array(
        [
            min(levenshtein("SMIT", w) for w in string_space.data),
            min(levenshtein("ZZZZZZ", w) for w in string_space.data),
        ]
    )
    assert np.array_equal(got, expected)
